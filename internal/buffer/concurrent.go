package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oodb/internal/obs"
	"oodb/internal/storage"
)

// ConcurrentPool is the goroutine-safe buffer pool behind the concurrent
// multi-session engine. Where Pool keeps one global replacement policy —
// victim order is observable simulation behavior there — ConcurrentPool
// trades exact global victim order for parallelism: frames shard by page-ID
// hash (the same Fibonacci mix the lock table uses), each shard owns its own
// capacity slice, policy instance, victim selection, and statistics, and a
// session faulting a page on one shard never blocks a session hitting on
// another.
//
// Synchronization per shard is a read-write mutex plus atomic pin counts:
// residency mutations (admit, evict, dirty bookkeeping, policy updates) take
// the write lock; Contains probes take the read lock; Pin/Unpin take the
// read lock and bump the frame's pin count atomically, so pins on resident
// pages scale with readers instead of serializing behind faults. The victim
// scan runs under the write lock and reads pin counts atomically, so a page
// pinned at any point during the scan is never chosen.
type ConcurrentPool struct {
	shards []cshard
	mask   uint64
	cap    int
	io     storage.PageIO // nil = count only, no physical transfer
	rec    obs.Recorder   // nil = uninstrumented
}

// cframe is one resident page's bookkeeping. Frames are held by pointer so
// the pin count stays addressable for atomic access while the map grows.
type cframe struct {
	pins  atomic.Int32
	dirty bool // guarded by the shard write lock
}

// cshard is one slice of the pool: its own frames, policy, and stats.
type cshard struct {
	mu       sync.RWMutex
	frames   map[storage.PageID]*cframe
	policy   Policy
	cap      int
	stats    Stats
	pinnedFn func(storage.PageID) bool // bound once; reads pins atomically
}

// NewConcurrentPool builds a pool of the given total frame capacity over
// len(policies) shards (must be a power of two). Each shard gets its own
// policy instance — construct them with PolicyConfig.Frames set to the
// per-shard capacity (ShardCapacity helps) — and an equal slice of the
// capacity, so victim pressure on one shard never disturbs another.
func NewConcurrentPool(capacity int, policies []Policy) (*ConcurrentPool, error) {
	n := len(policies)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("buffer: concurrent pool needs a power-of-two shard count, got %d", n)
	}
	if capacity < n {
		return nil, fmt.Errorf("buffer: concurrent pool capacity %d below shard count %d", capacity, n)
	}
	p := &ConcurrentPool{
		shards: make([]cshard, n),
		mask:   uint64(n - 1),
		cap:    capacity,
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.cap = ShardCapacity(capacity, n, i)
		sh.frames = make(map[storage.PageID]*cframe, sh.cap)
		sh.policy = policies[i]
		sh.pinnedFn = sh.pinned
	}
	return p, nil
}

// ShardCapacity returns shard i's frame quota when capacity spreads over n
// shards: capacity/n, with the remainder distributed one frame at a time to
// the low shards so the quotas sum exactly to capacity.
func ShardCapacity(capacity, n, i int) int {
	c := capacity / n
	if i < capacity%n {
		c++
	}
	return c
}

// SetRecorder installs the instrumentation hook; nil disables it.
func (p *ConcurrentPool) SetRecorder(r obs.Recorder) { p.rec = r }

// SetPageIO installs the physical page-transfer backend; nil (the default)
// keeps the pool a pure counting model. The transfers run under the shard
// lock so the frame leaves residency and reaches the page file atomically
// with respect to other faults on the shard — the straightforward ordering,
// paid for by holding the shard during the I/O. Only that one shard stalls;
// the others keep serving hits.
func (p *ConcurrentPool) SetPageIO(io storage.PageIO) { p.io = io }

// Shards returns the shard count.
func (p *ConcurrentPool) Shards() int { return len(p.shards) }

// Capacity returns the total frame count.
func (p *ConcurrentPool) Capacity() int { return p.cap }

// fibMix spreads sequential page IDs across shards (Fibonacci hashing).
const fibMix = 0x9E3779B97F4A7C15

func (p *ConcurrentPool) shardFor(pg storage.PageID) *cshard {
	return &p.shards[(uint64(pg)*fibMix>>32)&p.mask]
}

// pinned reports whether pg is pinned; called by Victim under the shard
// write lock, so the map read is safe and the pin count read is atomic.
func (sh *cshard) pinned(pg storage.PageID) bool {
	f := sh.frames[pg]
	return f != nil && f.pins.Load() > 0
}

// Access brings pg into the pool (if needed) and touches it.
func (p *ConcurrentPool) Access(pg storage.PageID) (AccessResult, error) {
	if pg == storage.NilPage {
		return AccessResult{}, fmt.Errorf("buffer: access to nil page")
	}
	return p.fault(pg, true)
}

// Install makes pg resident without a physical read. Installing an
// already-resident page is a hit, exactly as in Pool.
func (p *ConcurrentPool) Install(pg storage.PageID) (AccessResult, error) {
	if pg == storage.NilPage {
		return AccessResult{}, fmt.Errorf("buffer: install of nil page")
	}
	return p.fault(pg, false)
}

// fault is the shared hit-or-admit path. read distinguishes Access (a miss
// is a physical fetch) from Install (freshly allocated pages have no disk
// image); with a PageIO backend installed, that is the difference between
// issuing ReadPage on a miss and not.
func (p *ConcurrentPool) fault(pg storage.PageID, read bool) (AccessResult, error) {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	if sh.frames[pg] != nil {
		sh.stats.Hits++
		sh.policy.Touched(pg)
		sh.mu.Unlock()
		if p.rec != nil {
			p.rec.Count(obs.PoolHit, 1)
		}
		return AccessResult{Hit: true}, nil
	}
	sh.stats.Misses++
	res := AccessResult{}
	if len(sh.frames) >= sh.cap {
		victim, ok := sh.policy.Victim(sh.pinnedFn)
		if !ok {
			sh.mu.Unlock()
			return res, ErrAllPinned
		}
		vf := sh.frames[victim]
		res.Victim = victim
		res.VictimDirty = vf != nil && vf.dirty
		if res.VictimDirty {
			if p.io != nil {
				if err := p.io.WritePage(victim); err != nil {
					sh.mu.Unlock()
					return res, fmt.Errorf("buffer: flush of victim page %d: %w", victim, err)
				}
			}
			sh.stats.Flushes++
		}
		sh.stats.Evictions++
		delete(sh.frames, victim)
		sh.policy.Removed(victim)
	}
	sh.frames[pg] = &cframe{}
	sh.policy.Admitted(pg)
	if p.io != nil && read {
		if err := p.io.ReadPage(pg); err != nil {
			sh.mu.Unlock()
			return res, err
		}
	}
	sh.mu.Unlock()
	if p.rec != nil {
		p.rec.Count(obs.PoolMiss, 1)
		if res.Victim != storage.NilPage {
			p.rec.Count(obs.PoolEvict, 1)
			if res.VictimDirty {
				p.rec.Count(obs.PoolFlush, 1)
			}
		}
	}
	return res, nil
}

// Contains reports whether pg is resident.
func (p *ConcurrentPool) Contains(pg storage.PageID) bool {
	sh := p.shardFor(pg)
	sh.mu.RLock()
	_, ok := sh.frames[pg]
	sh.mu.RUnlock()
	return ok
}

// MarkDirty flags a resident page as modified.
func (p *ConcurrentPool) MarkDirty(pg storage.PageID) error {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f := sh.frames[pg]
	if f == nil {
		return fmt.Errorf("buffer: MarkDirty on non-resident page %d", pg)
	}
	f.dirty = true
	return nil
}

// IsDirty reports whether pg is resident and dirty.
func (p *ConcurrentPool) IsDirty(pg storage.PageID) bool {
	sh := p.shardFor(pg)
	sh.mu.RLock()
	f := sh.frames[pg]
	dirty := f != nil && f.dirty
	sh.mu.RUnlock()
	return dirty
}

// Boost raises pg's replacement priority if it is resident.
func (p *ConcurrentPool) Boost(pg storage.PageID) {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	if sh.frames[pg] != nil {
		sh.stats.Boosts++
		sh.policy.Boosted(pg)
		sh.mu.Unlock()
		if p.rec != nil {
			p.rec.Count(obs.PoolBoost, 1)
		}
		return
	}
	sh.mu.Unlock()
}

// Pin prevents pg from being evicted until Unpin. Pins take only the shard
// read lock — concurrent pins on one shard proceed in parallel — and the pin
// count is atomic so the victim scan observes it without tearing.
func (p *ConcurrentPool) Pin(pg storage.PageID) error {
	sh := p.shardFor(pg)
	sh.mu.RLock()
	f := sh.frames[pg]
	if f == nil {
		sh.mu.RUnlock()
		return fmt.Errorf("buffer: Pin on non-resident page %d", pg)
	}
	f.pins.Add(1)
	sh.mu.RUnlock()
	return nil
}

// Unpin releases one pin on pg.
func (p *ConcurrentPool) Unpin(pg storage.PageID) error {
	sh := p.shardFor(pg)
	sh.mu.RLock()
	f := sh.frames[pg]
	if f == nil {
		sh.mu.RUnlock()
		return fmt.Errorf("buffer: Unpin on non-resident page %d", pg)
	}
	if f.pins.Add(-1) < 0 {
		f.pins.Add(1)
		sh.mu.RUnlock()
		return fmt.Errorf("buffer: Unpin on unpinned page %d", pg)
	}
	sh.mu.RUnlock()
	return nil
}

// Resident returns the number of resident pages.
func (p *ConcurrentPool) Resident() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.frames)
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns the statistics merged across shards.
func (p *ConcurrentPool) Stats() Stats {
	var s Stats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		s.merge(sh.stats)
		sh.mu.RUnlock()
	}
	return s
}

// ResetStats zeroes the statistics on every shard.
func (p *ConcurrentPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// merge folds o into s (counters all add).
func (s *Stats) merge(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Flushes += o.Flushes
	s.Boosts += o.Boosts
	s.Prefetches += o.Prefetches
}

// FlushDirty writes every dirty resident page through the PageIO backend
// and clears its dirty flag, one shard at a time under that shard's write
// lock — the shutdown/checkpoint sweep. Stats.Flushes is untouched: it
// measures eviction-forced write-backs only.
func (p *ConcurrentPool) FlushDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for pg, f := range sh.frames {
			if !f.dirty {
				continue
			}
			if p.io != nil {
				if err := p.io.WritePage(pg); err != nil {
					sh.mu.Unlock()
					return fmt.Errorf("buffer: flush of page %d: %w", pg, err)
				}
			}
			f.dirty = false
		}
		sh.mu.Unlock()
	}
	return nil
}

// CheckInvariants validates internal consistency: shard occupancy within
// quota and no negative pin counts. Quiesce the pool before calling.
func (p *ConcurrentPool) CheckInvariants() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n, cap := len(sh.frames), sh.cap
		var bad storage.PageID
		for pg, f := range sh.frames {
			if f.pins.Load() < 0 {
				bad = pg
				break
			}
		}
		sh.mu.RUnlock()
		if n > cap {
			return fmt.Errorf("buffer: shard %d holds %d frames over quota %d", i, n, cap)
		}
		if bad != storage.NilPage {
			return fmt.Errorf("buffer: page %d has a negative pin count", bad)
		}
	}
	return nil
}
