package core

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// Steady-state allocation gates for the placement hot path. The clusterer
// threads every per-placement buffer through its scratch struct, the
// neighborhood helpers dedup with linear scans instead of maps, and the
// context policy runs on pooled intrusive lists — so once the scratch has
// grown to its working size, a placement decision performs zero heap
// allocations.

// allocFixture builds two composite roots on separate pages and a shared
// leaf placed with the first, so Recluster on the leaf runs the full
// candidate/affinity decision and concludes no move is worthwhile.
func allocFixture(t testing.TB) (*Clusterer, *model.Graph, *storage.Manager, *model.Object) {
	t.Helper()
	g := model.NewGraph()
	var rf, lf model.FreqProfile
	rf[model.ConfigDown] = 0.5
	lf[model.ConfigUp] = 0.6
	rootT, err := g.DefineType("root", model.NilType, 200, rf, nil)
	if err != nil {
		t.Fatal(err)
	}
	leafT, err := g.DefineType("leaf", model.NilType, 100, lf, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewManager(g, 4096)
	pool := buffer.NewPool(64, buffer.NewLRU())
	c := NewClusterer(g, st, pool)
	c.Policy = PolicyNoLimit

	r1, _ := g.NewObject("R", 1, rootT)
	r2, _ := g.NewObject("R", 2, rootT)
	for _, r := range []*model.Object{r1, r2} {
		if _, err := c.PlaceNew(r); err != nil {
			t.Fatal(err)
		}
	}
	if st.PageOf(r1.ID) == st.PageOf(r2.ID) {
		t.Fatal("fixture wants the roots on distinct pages")
	}
	leaf, _ := g.NewObject("L", 1, leafT)
	if err := g.Attach(r1.ID, leaf.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(r2.ID, leaf.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlaceNew(leaf); err != nil {
		t.Fatal(err)
	}
	return c, g, st, leaf
}

func TestReclusterDecisionAllocFree(t *testing.T) {
	c, _, _, leaf := allocFixture(t)
	allocs := testing.AllocsPerRun(100, func() {
		pl, err := c.Recluster(leaf)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Moved {
			t.Fatal("fixture affinity is symmetric; no move expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Recluster decision allocates %.1f per run, want 0", allocs)
	}
}

func TestAppendHelpersAllocFree(t *testing.T) {
	_, g, st, leaf := allocFixture(t)
	dst := make([]storage.PageID, 0, 32)
	allocs := testing.AllocsPerRun(100, func() {
		dst = AppendNeighborPages(dst[:0], g, st, leaf, model.ConfigUp, 0)
		dst = AppendContextBoostPages(dst[:0], g, st, leaf, ContextNeighborLimit)
		dst = AppendPrefetchGroup(dst[:0], g, st, leaf, NoHints, Hint{})
	})
	if allocs != 0 {
		t.Fatalf("append helpers allocate %.1f per run, want 0", allocs)
	}
	if len(AppendNeighborPages(dst[:0], g, st, leaf, model.ConfigUp, 0)) == 0 {
		t.Fatal("fixture leaf must have at least one neighbor page")
	}
}

func TestContextPolicySteadyStateAllocs(t *testing.T) {
	pol := NewContextPolicy(8)
	for pg := storage.PageID(1); pg <= 16; pg++ {
		pol.Admitted(pg)
	}
	// Promote past the protected bound so the demotion path is exercised
	// inside the measured loop too.
	for pg := storage.PageID(1); pg <= 10; pg++ {
		pol.Boosted(pg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		pol.Touched(3)  // probationary -> protected (with demotion overflow)
		pol.Boosted(5)  // protected MoveToFront or promotion
		pol.Touched(12) // churn a second page through the levels
		v, ok := pol.Victim()
		if !ok {
			t.Fatal("no victim")
		}
		pol.Removed(v)
		pol.Admitted(v)
	})
	if allocs != 0 {
		t.Fatalf("context policy steady state allocates %.1f per run, want 0", allocs)
	}
	if tracked(pol) != 16 {
		t.Fatalf("tracked=%d, want 16", tracked(pol))
	}
}
