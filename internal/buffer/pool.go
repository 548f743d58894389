// Package buffer implements the buffer-pool mechanics the paper's buffer
// manager is built on: a fixed set of frames, a resident-page table, dirty
// tracking, and hit/miss/flush statistics, with the replacement decision
// delegated to a pluggable Policy.
//
// The two semantics-blind baseline policies from the paper, LRU and Random,
// live here. The context-sensitive policy — the paper's contribution — needs
// structural knowledge and lives in internal/core.
package buffer

import (
	"fmt"
	"sync/atomic"

	"oodb/internal/storage"
)

// Policy chooses replacement victims. Implementations are notified of every
// admission, touch, priority boost, and removal so they can maintain their
// own bookkeeping. The pool calls Victim only when it is full.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Admitted tells the policy pg became resident.
	Admitted(pg storage.PageID)
	// Touched tells the policy pg was accessed while resident.
	Touched(pg storage.PageID)
	// Boosted gives pg a priority boost without a data access — the hook the
	// prefetch-within-buffer-pool strategy and the cluster manager's
	// keep-candidates hints use.
	Boosted(pg storage.PageID)
	// Removed tells the policy pg left the pool.
	Removed(pg storage.PageID)
	// Victim returns the page to evict. ok is false only if the policy
	// tracks no page.
	Victim() (pg storage.PageID, ok bool)
}

// PolicyCloner is the optional interface a Policy implements when a pool
// holding it can be cloned (Pool.Clone). ClonePolicy returns an independent
// policy in the same state; cfg is the clone's construction context, and a
// stochastic policy takes its stream from cfg.RNG and brings it to the
// position its own stream has reached.
type PolicyCloner interface {
	ClonePolicy(cfg PolicyConfig) Policy
}

// AccessResult describes what the pool did to satisfy an access, so the
// caller (the simulation engine) can charge the right physical I/Os:
// zero for a hit, one read for a miss, plus one write when a dirty victim
// had to be flushed first.
type AccessResult struct {
	Hit         bool
	Victim      storage.PageID // NilPage if no eviction happened
	VictimDirty bool           // true adds a flush write before the read
}

// Stats aggregates pool activity.
type Stats struct {
	Hits      int
	Misses    int
	Evictions int
	Flushes   int // dirty victims written back
	Boosts    int
}

// HitRatio returns hits / (hits+misses), or 0 when idle.
func (s Stats) HitRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Pool is the buffer pool: the one frame table and fault path in the
// repository (ConcurrentPool is locked shards of it).
//
// The frame table is a page-indexed PageTable of one state byte per page
// plus a resident count, so a residency probe is one load and the
// steady-state access/evict cycle allocates nothing.
type Pool struct {
	capacity int
	policy   Policy
	frames   PageTable[frameState]
	resident int
	stats    Stats
	io       storage.PageIO // nil = count only, no physical transfer

	// epoch, when set (a ConcurrentPool shard), is bumped before any page
	// leaves the frame table: a view's residency stamp holds while it is
	// unchanged.
	epoch *atomic.Uint64
}

// frameState is a page's entry in the frame table.
type frameState uint8

const (
	absent frameState = iota // the zero value: not resident
	clean
	dirty
)

// NewPool creates a pool with the given frame count and replacement
// policy. The pool is single-threaded, like the simulator that drives it;
// ConcurrentPool is the goroutine-safe one.
func NewPool(capacity int, policy Policy) *Pool {
	if capacity < 1 {
		panic("buffer: capacity must be at least 1")
	}
	return &Pool{capacity: capacity, policy: policy}
}

// Clone returns a pool in p's state — residency, dirty flags, statistics
// and the policy's order — over a copy of its policy made with cfg. It
// reports false, and copies nothing, when the policy is not a PolicyCloner
// or the pool does physical page I/O, whose device state is not the pool's
// to copy.
func (p *Pool) Clone(cfg PolicyConfig) (*Pool, bool) {
	if !p.Cloneable() {
		return nil, false
	}
	c := *p
	c.policy = p.policy.(PolicyCloner).ClonePolicy(cfg)
	c.frames = p.frames.Clone()
	return &c, true
}

// Cloneable reports whether Clone can copy p.
func (p *Pool) Cloneable() bool {
	_, ok := p.policy.(PolicyCloner)
	return ok && p.io == nil
}

// Capacity returns the frame count.
func (p *Pool) Capacity() int { return p.capacity }

// Resident returns the number of resident pages.
func (p *Pool) Resident() int { return p.resident }

// Contains reports whether pg is resident.
func (p *Pool) Contains(pg storage.PageID) bool { return p.frames.Get(pg) != absent }

// Shards returns 1: a Pool is one shard (ConcurrentPool reports its own).
func (p *Pool) Shards() int { return 1 }

// SetPageIO installs the physical page-transfer backend. With it set, a
// dirty eviction writes the victim's frame before the slot is reused and a
// miss reads the faulted page's frame; nil (the default) keeps the pool a
// pure counting model, byte-identical to the pre-durability behavior.
func (p *Pool) SetPageIO(io storage.PageIO) { p.io = io }

// Stats returns a copy of the pool statistics.
func (p *Pool) Stats() Stats { return p.stats }

// ResetStats zeroes the statistics without touching residency.
func (p *Pool) ResetStats() { p.stats = Stats{} }

// admit evicts if the pool is full (recording the victim in res) and makes
// pg resident.
func (p *Pool) admit(pg storage.PageID, res *AccessResult) error {
	if p.resident >= p.capacity {
		victim, ok := p.policy.Victim()
		if !ok {
			return fmt.Errorf("buffer: policy %s names no victim for a full pool", p.policy.Name())
		}
		vs := p.frames.Get(victim)
		res.Victim = victim
		res.VictimDirty = vs == dirty
		if vs == dirty {
			// The write-back is a transfer count: frames carry no bytes, and
			// the victim's mutations are already in the log.
			if p.io != nil {
				if err := p.io.WritePage(victim); err != nil {
					return fmt.Errorf("buffer: flush of victim page %d: %w", victim, err)
				}
			}
			p.stats.Flushes++
		}
		p.stats.Evictions++
		p.drop(victim)
		p.policy.Removed(victim)
	}
	p.frames.Set(pg, clean)
	p.resident++
	p.policy.Admitted(pg)
	return nil
}

// drop takes pg out of the frame table. A page that was never resident —
// a faulty policy's victim — leaves the table and the count as they are.
func (p *Pool) drop(pg storage.PageID) {
	if p.frames.Get(pg) != absent {
		if p.epoch != nil {
			p.epoch.Add(1)
		}
		p.frames.Set(pg, absent)
		p.resident--
	}
}

// Access brings pg into the pool (if needed) and touches it. The result
// tells the caller which physical I/Os the access implies.
func (p *Pool) Access(pg storage.PageID) (AccessResult, error) {
	if pg == storage.NilPage {
		return AccessResult{}, fmt.Errorf("buffer: access to nil page")
	}
	return p.fault(pg, true)
}

// Install makes pg resident without a physical read — used for freshly
// allocated pages, which have no disk image to fetch. An eviction may still
// be needed; the result reports it so the caller can charge the victim
// flush. Installing an already-resident page is a hit.
func (p *Pool) Install(pg storage.PageID) (AccessResult, error) {
	if pg == storage.NilPage {
		return AccessResult{}, fmt.Errorf("buffer: install of nil page")
	}
	return p.fault(pg, false)
}

// fault is the shared hit-or-admit path. read distinguishes Access (a miss,
// and with a PageIO backend a physical fetch) from Install.
func (p *Pool) fault(pg storage.PageID, read bool) (AccessResult, error) {
	if p.Contains(pg) {
		p.hit(pg)
		return AccessResult{Hit: true}, nil
	}
	if read {
		p.stats.Misses++
	}
	res := AccessResult{}
	if err := p.admit(pg, &res); err != nil {
		return res, err
	}
	if read && p.io != nil {
		if err := p.io.ReadPage(pg); err != nil {
			// The frame never received its image: take pg back out so a
			// retry is a miss that reads again, not a hit on nothing.
			p.drop(pg)
			p.policy.Removed(pg)
			return res, err
		}
	}
	return res, nil
}

// hit counts a hit on pg and, if pg is still resident, tells the policy;
// it reports whether pg was. The fault path's hit and a View's deferred
// touch, which pg may have outlived, both land here.
func (p *Pool) hit(pg storage.PageID) bool {
	p.stats.Hits++
	if !p.Contains(pg) {
		return false
	}
	p.policy.Touched(pg)
	return true
}

// MarkDirty flags a resident page as modified. Marking a non-resident page
// is a model bug and returns an error.
func (p *Pool) MarkDirty(pg storage.PageID) error {
	if !p.Contains(pg) {
		return fmt.Errorf("buffer: MarkDirty on non-resident page %d", pg)
	}
	p.frames.Set(pg, dirty)
	return nil
}

// IsDirty reports whether pg is resident and dirty.
func (p *Pool) IsDirty(pg storage.PageID) bool { return p.frames.Get(pg) == dirty }

// Boost raises pg's replacement priority if it is resident and reports
// whether it was; non-resident pages are ignored (prefetch-within-buffer
// never triggers I/O). The answer is the residency probe, so a caller that
// boosts whatever is resident needs no separate Contains.
func (p *Pool) Boost(pg storage.PageID) bool {
	if !p.Contains(pg) {
		return false
	}
	p.stats.Boosts++
	p.policy.Boosted(pg)
	return true
}

// FlushDirty writes every dirty resident page through the PageIO backend,
// in ascending page order, and clears its dirty flag — the
// shutdown/checkpoint sweep. Flush counts are untouched: Stats.Flushes
// measures eviction-forced write-backs only. Without a PageIO backend it
// only clears the flags.
func (p *Pool) FlushDirty() error {
	for i := 0; i < p.frames.Len(); i++ {
		pg := storage.PageID(i)
		if !p.IsDirty(pg) {
			continue
		}
		if p.io != nil {
			if err := p.io.WritePage(pg); err != nil {
				return fmt.Errorf("buffer: flush of page %d: %w", pg, err)
			}
		}
		p.frames.Set(pg, clean)
	}
	return nil
}
