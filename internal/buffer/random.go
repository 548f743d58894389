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
//
// Each page's position+1 in pages (0 for an untracked page) and its
// protection horizon (0 for none) live in page-indexed PageTables.
type Random struct {
	rng       *rand.Rand
	pages     []storage.PageID
	index     PageTable[int32]
	protected PageTable[uint64] // page -> eviction counter horizon
	evictions uint64
	// ProtectionWindow is how many evictions a boost shields a page for.
	ProtectionWindow uint64
}

// NewRandom returns a Random policy drawing from rng. A protection window of
// roughly a quarter of the pool capacity works well; pass 0 to disable boost
// protection entirely.
func NewRandom(rng *rand.Rand, protectionWindow uint64) *Random {
	return &Random{rng: rng, ProtectionWindow: protectionWindow}
}

// Name implements Policy.
func (r *Random) Name() string { return "Random" }

// Admitted implements Policy.
func (r *Random) Admitted(pg storage.PageID) {
	r.pages = append(r.pages, pg)
	r.index.Set(pg, int32(len(r.pages)))
}

// Touched implements Policy. Random ignores recency.
func (r *Random) Touched(pg storage.PageID) {}

// Boosted implements Policy.
func (r *Random) Boosted(pg storage.PageID) {
	if r.ProtectionWindow == 0 {
		return
	}
	if r.index.Get(pg) != 0 {
		r.protected.Set(pg, r.evictions+r.ProtectionWindow)
	}
}

// Removed implements Policy.
func (r *Random) Removed(pg storage.PageID) {
	i := int(r.index.Get(pg)) - 1
	if i < 0 {
		return
	}
	last := len(r.pages) - 1
	r.pages[i] = r.pages[last]
	r.index.Set(r.pages[i], int32(i+1))
	r.pages = r.pages[:last]
	r.index.Set(pg, 0)
	r.protected.Set(pg, 0)
}

func (r *Random) isProtected(pg storage.PageID) bool {
	h := r.protected.Get(pg)
	if h == 0 {
		return false
	}
	if r.evictions >= h {
		r.protected.Set(pg, 0)
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
