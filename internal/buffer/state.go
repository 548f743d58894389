package buffer

import (
	"fmt"
	"sort"

	"oodb/internal/storage"
)

// PolicyState is the serializable state of a replacement policy. One
// flexible struct covers every registered policy (and stays gob-friendly
// without interface registration): each policy uses the fields that encode
// its bookkeeping and leaves the rest zero.
//
//   - LRU:               Pages = recency order, MRU first.
//   - Random:            Pages = membership in slot order, Evictions +
//     Protected = boost-protection horizons.
//   - CLOCK:             Pages = circle in slot order, Flags = reference
//     bits, Hand = sweep position.
//   - context-sensitive: Pages = protected segment (MRU first), Pages2 =
//     probationary segment (MRU first).
//
// RNG-driven policies do not serialize generator state here: their streams
// come from the kernel's named streams, whose positions the kernel snapshot
// records.
type PolicyState struct {
	Kind      string
	Pages     []storage.PageID
	Pages2    []storage.PageID
	Flags     []bool
	Hand      int
	Evictions uint64
	Protected []ProtectedPage
}

// ProtectedPage records a Random-policy boost protection: the page is
// shielded from victim selection until the eviction counter reaches Horizon.
type ProtectedPage struct {
	Page    storage.PageID
	Horizon uint64
}

// StatefulPolicy is a replacement policy that supports checkpoint/restore.
// All policies shipped in this repository implement it; the pool refuses to
// snapshot with a policy that does not.
type StatefulPolicy interface {
	Policy
	Snapshot() PolicyState
	Restore(PolicyState) error
}

func checkKind(s PolicyState, kind string) error {
	if s.Kind != kind {
		return fmt.Errorf("buffer: snapshot for policy %q restored into %q", s.Kind, kind)
	}
	return nil
}

// Snapshot implements StatefulPolicy.
func (l *LRU) Snapshot() PolicyState {
	st := PolicyState{Kind: l.Name(), Pages: make([]storage.PageID, 0, l.order.Len())}
	for h := l.order.Front(); h != 0; h = l.order.Next(h) {
		st.Pages = append(st.Pages, l.order.Page(h))
	}
	return st
}

// Restore implements StatefulPolicy: the recency order is rebuilt exactly.
func (l *LRU) Restore(s PolicyState) error {
	if err := checkKind(s, l.Name()); err != nil {
		return err
	}
	l.order = PageList{}
	l.pos = make(map[storage.PageID]int32, len(s.Pages))
	for i := len(s.Pages) - 1; i >= 0; i-- {
		l.pos[s.Pages[i]] = l.order.PushFront(s.Pages[i])
	}
	return nil
}

// Snapshot implements StatefulPolicy. Slot order is preserved: the victim
// probe indexes pages by slot, so membership order is behaviorally visible.
func (r *Random) Snapshot() PolicyState {
	st := PolicyState{
		Kind:      r.Name(),
		Pages:     append([]storage.PageID(nil), r.pages...),
		Evictions: r.evictions,
		Protected: make([]ProtectedPage, 0, len(r.protected)),
	}
	for pg, h := range r.protected {
		st.Protected = append(st.Protected, ProtectedPage{Page: pg, Horizon: h})
	}
	sort.Slice(st.Protected, func(i, j int) bool { return st.Protected[i].Page < st.Protected[j].Page })
	return st
}

// Restore implements StatefulPolicy.
func (r *Random) Restore(s PolicyState) error {
	if err := checkKind(s, r.Name()); err != nil {
		return err
	}
	r.pages = append(r.pages[:0], s.Pages...)
	r.index = make(map[storage.PageID]int, len(s.Pages))
	for i, pg := range s.Pages {
		r.index[pg] = i
	}
	r.protected = make(map[storage.PageID]uint64, len(s.Protected))
	for _, p := range s.Protected {
		r.protected[p.Page] = p.Horizon
	}
	r.evictions = s.Evictions
	return nil
}

// Snapshot implements StatefulPolicy. Slot order, reference bits, and the
// hand position fully determine future sweeps.
func (c *Clock) Snapshot() PolicyState {
	return PolicyState{
		Kind:  c.Name(),
		Pages: append([]storage.PageID(nil), c.pages...),
		Flags: append([]bool(nil), c.ref...),
		Hand:  c.hand,
	}
}

// Restore implements StatefulPolicy.
func (c *Clock) Restore(s PolicyState) error {
	if err := checkKind(s, c.Name()); err != nil {
		return err
	}
	if len(s.Flags) != len(s.Pages) {
		return fmt.Errorf("buffer: CLOCK snapshot has %d flags for %d pages", len(s.Flags), len(s.Pages))
	}
	if len(s.Pages) > 0 && (s.Hand < 0 || s.Hand >= len(s.Pages)) {
		return fmt.Errorf("buffer: CLOCK snapshot hand %d out of range", s.Hand)
	}
	c.pages = append(c.pages[:0], s.Pages...)
	c.ref = append(c.ref[:0], s.Flags...)
	c.index = make(map[storage.PageID]int, len(s.Pages))
	for i, pg := range s.Pages {
		c.index[pg] = i
	}
	c.hand = s.Hand
	if len(s.Pages) == 0 {
		c.hand = 0
	}
	return nil
}

// FrameState records one resident page.
type FrameState struct {
	Page  storage.PageID
	Dirty bool
}

// PoolState is the serializable state of the buffer pool: residency with
// dirty bits, accumulated statistics, and the replacement policy's own
// bookkeeping. Frames are sorted by page ID so encoding is deterministic
// (the resident table is a map).
type PoolState struct {
	Capacity int
	Frames   []FrameState
	Stats    Stats
	Policy   PolicyState
}

// Snapshot captures the pool state. It returns an error if the installed
// policy does not support checkpointing.
func (p *Pool) Snapshot() (PoolState, error) {
	sp, ok := p.policy.(StatefulPolicy)
	if !ok {
		return PoolState{}, fmt.Errorf("buffer: policy %s does not support checkpointing", p.policy.Name())
	}
	st := PoolState{
		Capacity: p.capacity,
		Frames:   make([]FrameState, 0, len(p.resident)),
		Stats:    p.stats,
		Policy:   sp.Snapshot(),
	}
	for pg, f := range p.resident {
		st.Frames = append(st.Frames, FrameState{Page: pg, Dirty: f.dirty})
	}
	sort.Slice(st.Frames, func(i, j int) bool { return st.Frames[i].Page < st.Frames[j].Page })
	return st, nil
}

// Restore overwrites residency, statistics, and policy state.
func (p *Pool) Restore(st PoolState) error {
	sp, ok := p.policy.(StatefulPolicy)
	if !ok {
		return fmt.Errorf("buffer: policy %s does not support checkpointing", p.policy.Name())
	}
	if st.Capacity != p.capacity {
		return fmt.Errorf("buffer: snapshot capacity %d, pool has %d", st.Capacity, p.capacity)
	}
	if len(st.Frames) > p.capacity {
		return fmt.Errorf("buffer: snapshot has %d resident pages for %d frames", len(st.Frames), p.capacity)
	}
	resident := make(map[storage.PageID]frame, p.capacity)
	for _, f := range st.Frames {
		if f.Page == storage.NilPage {
			return fmt.Errorf("buffer: snapshot holds nil page")
		}
		if _, dup := resident[f.Page]; dup {
			return fmt.Errorf("buffer: snapshot holds page %d twice", f.Page)
		}
		resident[f.Page] = frame{dirty: f.Dirty}
	}
	if err := sp.Restore(st.Policy); err != nil {
		return err
	}
	p.resident = resident
	p.stats = st.Stats
	return nil
}
