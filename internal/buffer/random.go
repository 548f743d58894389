package buffer

import (
	"math/rand"

	"oodb/internal/storage"
)

// Random replaces a uniformly random resident page — the paper's second
// semantics-blind baseline. To let the prefetch-within-buffer strategy still
// influence it (Figure 5.14 shows it does), a Boosted page is protected from
// random victim selection for a bounded number of subsequent evictions;
// when every candidate is protected, protection is ignored.
type Random struct {
	rng       *rand.Rand
	pages     []storage.PageID
	index     map[storage.PageID]int
	protected map[storage.PageID]uint64 // page -> eviction counter horizon
	evictions uint64
	// ProtectionWindow is how many evictions a boost shields a page for.
	ProtectionWindow uint64
}

// NewRandom returns a Random policy drawing from rng. A protection window of
// roughly a quarter of the pool capacity works well; pass 0 to disable boost
// protection entirely.
func NewRandom(rng *rand.Rand, protectionWindow uint64) *Random {
	return &Random{
		rng:              rng,
		index:            make(map[storage.PageID]int),
		protected:        make(map[storage.PageID]uint64),
		ProtectionWindow: protectionWindow,
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "Random" }

// Admitted implements Policy.
func (r *Random) Admitted(pg storage.PageID) {
	r.index[pg] = len(r.pages)
	r.pages = append(r.pages, pg)
}

// Touched implements Policy. Random ignores recency.
func (r *Random) Touched(pg storage.PageID) {}

// Boosted implements Policy.
func (r *Random) Boosted(pg storage.PageID) {
	if r.ProtectionWindow == 0 {
		return
	}
	if _, ok := r.index[pg]; ok {
		r.protected[pg] = r.evictions + r.ProtectionWindow
	}
}

// Removed implements Policy.
func (r *Random) Removed(pg storage.PageID) {
	i, ok := r.index[pg]
	if !ok {
		return
	}
	last := len(r.pages) - 1
	r.pages[i] = r.pages[last]
	r.index[r.pages[i]] = i
	r.pages = r.pages[:last]
	delete(r.index, pg)
	delete(r.protected, pg)
}

func (r *Random) isProtected(pg storage.PageID) bool {
	h, ok := r.protected[pg]
	if !ok {
		return false
	}
	if r.evictions >= h {
		delete(r.protected, pg)
		return false
	}
	return true
}

// Victim implements Policy: a random unprotected page; protection is waived
// if no unprotected candidate turns up in a bounded search.
func (r *Random) Victim() (storage.PageID, bool) {
	n := len(r.pages)
	if n == 0 {
		return storage.NilPage, false
	}
	r.evictions++
	for try := 0; try < 2*n; try++ {
		pg := r.pages[r.rng.Intn(n)]
		if !r.isProtected(pg) {
			return pg, true
		}
	}
	return r.pages[r.rng.Intn(n)], true
}

// Len returns the number of tracked pages.
func (r *Random) Len() int { return len(r.pages) }
