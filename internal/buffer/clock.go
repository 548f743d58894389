package buffer

import "oodb/internal/storage"

// Clock is the classic second-chance replacement policy: resident pages sit
// on a circular list with a reference bit, the hand sweeps the circle, and a
// page whose bit is set gets one more lap instead of being evicted. It is
// the textbook LRU approximation real buffer managers ship, and here it is
// the third semantics-blind baseline — registered as "clock" — proving the
// replacement-policy seam accepts strategies beyond the paper's three.
//
// Boosted pages have their reference bit set, exactly like a touch: the
// structural boost buys the page one extra sweep, which is the natural
// CLOCK analogue of LRU's move-to-front.
//
// The circle is an index-backed slice with swap-delete removal (the sweep
// order is approximate after removals, as with any resizable clock), each
// page's place on it is a page-indexed PageTable of position+1 (0 for an
// untracked page), and the steady-state cycle allocates nothing.
type Clock struct {
	pages []storage.PageID
	ref   []bool
	index PageTable[int32]
	hand  int
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock { return &Clock{} }

// Name implements Policy.
func (c *Clock) Name() string { return "CLOCK" }

// Admitted implements Policy: new pages enter with their reference bit set,
// so a freshly admitted page always survives the sweep that admitted it.
func (c *Clock) Admitted(pg storage.PageID) {
	c.pages = append(c.pages, pg)
	c.index.Set(pg, int32(len(c.pages)))
	c.ref = append(c.ref, true)
}

// Touched implements Policy.
func (c *Clock) Touched(pg storage.PageID) {
	if i := c.index.Get(pg); i != 0 {
		c.ref[i-1] = true
	}
}

// Boosted implements Policy: structural relevance counts as a reference.
func (c *Clock) Boosted(pg storage.PageID) { c.Touched(pg) }

// Removed implements Policy.
func (c *Clock) Removed(pg storage.PageID) {
	i := int(c.index.Get(pg)) - 1
	if i < 0 {
		return
	}
	last := len(c.pages) - 1
	c.pages[i] = c.pages[last]
	c.ref[i] = c.ref[last]
	c.index.Set(c.pages[i], int32(i+1))
	c.pages = c.pages[:last]
	c.ref = c.ref[:last]
	c.index.Set(pg, 0)
	if last == 0 {
		c.hand = 0
	} else if c.hand >= last {
		c.hand = 0
	}
}

// Victim implements Policy: sweep the hand, clearing reference bits, until
// a page with a clear bit comes up. The first lap clears every bit, so the
// sweep ends within two.
func (c *Clock) Victim() (storage.PageID, bool) {
	n := len(c.pages)
	if n == 0 {
		return storage.NilPage, false
	}
	for {
		i := c.hand
		c.hand = (c.hand + 1) % n
		if c.ref[i] {
			c.ref[i] = false
			continue
		}
		return c.pages[i], true
	}
}

// Len returns the number of tracked pages.
func (c *Clock) Len() int { return len(c.pages) }
