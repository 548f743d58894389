package buffer

import "oodb/internal/storage"

// LRU is the classic least-recently-used replacement policy — the paper's
// "native" baseline whose weakness (evicting structurally related pages and
// clustering candidates) motivates the context-sensitive policy.
//
// Boosted pages are treated as touched: moving a page to the MRU end is the
// only priority mechanism LRU has, which is exactly how the paper's
// "prefetch within buffer pool" interacts with an LRU pool.
//
// The recency order lives in an intrusive PageList whose nodes recycle
// through a free list, and each page's node handle in a page-indexed
// PageTable (0, the nil handle, for an untracked page), so the steady-state
// Admitted/Touched/Removed cycle allocates nothing.
type LRU struct {
	order PageList // front = MRU, back = LRU
	pos   PageTable[int32]
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// Admitted implements Policy.
func (l *LRU) Admitted(pg storage.PageID) {
	l.pos.Set(pg, l.order.PushFront(pg))
}

// Touched implements Policy.
func (l *LRU) Touched(pg storage.PageID) {
	if h := l.pos.Get(pg); h != 0 {
		l.order.MoveToFront(h)
	}
}

// Boosted implements Policy.
func (l *LRU) Boosted(pg storage.PageID) { l.Touched(pg) }

// Removed implements Policy.
func (l *LRU) Removed(pg storage.PageID) {
	if h := l.pos.Get(pg); h != 0 {
		l.order.Remove(h)
		l.pos.Set(pg, 0)
	}
}

// Victim implements Policy: the least recently used page.
func (l *LRU) Victim() (storage.PageID, bool) {
	h := l.order.Back()
	if h == 0 {
		return storage.NilPage, false
	}
	return l.order.Page(h), true
}

// Len returns the number of tracked pages.
func (l *LRU) Len() int { return l.order.Len() }
