package core

import (
	"testing"

	"oodb/internal/model"
	"oodb/internal/storage"
)

func TestNeighborPages(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	root.Size = 4000
	f.mustPlace(t, root)
	l1 := f.newLeafUnder(t, root.ID, 1)
	f.mustPlace(t, l1) // root full -> elsewhere
	l2 := f.newLeafUnder(t, root.ID, 2)
	f.mustPlace(t, l2)

	pages := AppendNeighborPages(nil, f.g, f.st, l1, model.ConfigUp, 0)
	if len(pages) != 1 || pages[0] != f.st.PageOf(root.ID) {
		t.Fatalf("neighbor pages: %v", pages)
	}
	// Own page excluded.
	if got := AppendNeighborPages(nil, f.g, f.st, root, model.ConfigDown, 0); len(got) != 1 {
		// l1 and l2 share a page (sibling packing), distinct from root's.
		t.Fatalf("root's component pages: %v", got)
	}
	// Limit respected.
	if got := AppendNeighborPages(nil, f.g, f.st, root, model.ConfigDown, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
	// Unplaced neighbors skipped.
	l3 := f.newLeafUnder(t, root.ID, 3)
	_ = l3
	if got := AppendNeighborPages(nil, f.g, f.st, root, model.ConfigDown, 0); len(got) != 1 {
		t.Fatalf("unplaced neighbor leaked: %v", got)
	}
}

// TestSiblingPages: once the composite's page is listed, the clusterer's
// candidate list goes on to the pages of the composite's other components,
// skipping the object's own page; the ablation knob drops that tier.
func TestSiblingPages(t *testing.T) {
	f := newFixture(t, 4096, 8)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	root.Size = 4000
	f.mustPlace(t, root)
	l1 := f.newLeafUnder(t, root.ID, 1)
	f.mustPlace(t, l1) // root full -> elsewhere
	l2 := f.newLeafUnder(t, root.ID, 2)
	rootPage, l1Page := f.st.PageOf(root.ID), f.st.PageOf(l1.ID)
	// l2 unplaced: the composite's page, then its sibling l1's page.
	if got := f.c.candidatePages(l2); len(got) != 2 || got[0] != rootPage || got[1] != l1Page {
		t.Fatalf("candidates of unplaced l2: %v, want [%d %d]", got, rootPage, l1Page)
	}
	f.c.NoSiblingCandidates = true
	if got := f.c.candidatePages(l2); len(got) != 1 || got[0] != rootPage {
		t.Fatalf("candidates without the sibling tier: %v, want [%d]", got, rootPage)
	}
	f.c.NoSiblingCandidates = false
	// Once l2 shares l1's page, that page is its own and is not a candidate.
	if pl := f.mustPlace(t, l2); pl.Page != l1Page {
		t.Fatalf("l2 placed on page %d, want its sibling's page %d", pl.Page, l1Page)
	}
	if got := f.c.candidatePages(l2); len(got) != 1 || got[0] != rootPage {
		t.Fatalf("candidates of placed l2: %v, want [%d]", got, rootPage)
	}
	// An object with no composites has no siblings.
	lone, _ := f.g.NewObject("X", 1, f.leafT)
	if got := f.c.candidatePages(lone); len(got) != 0 {
		t.Fatalf("lone object's candidates: %v", got)
	}
}

func TestRankedKindsHonorHints(t *testing.T) {
	f := newFixture(t, 4096, 8)
	leaf, _ := f.g.NewObject("L", 1, f.leafT) // ConfigUp dominant
	var buf [model.NumRelKinds]model.RelKind
	kinds := rankKinds(&buf, leaf, NoHints, Hint{})
	if kinds[0] != model.ConfigUp {
		t.Fatalf("dominant kind first: %v", kinds)
	}
	kinds = rankKinds(&buf, leaf, UserHints, Hint{Kind: model.Correspondence, Active: true})
	if kinds[0] != model.Correspondence {
		t.Fatalf("hint must come first: %v", kinds)
	}
	if len(kinds) != int(model.NumRelKinds) {
		t.Fatalf("kinds must be a permutation: %v", kinds)
	}
	// Inactive hint is ignored even under UserHints.
	kinds = rankKinds(&buf, leaf, UserHints, Hint{Kind: model.Correspondence})
	if kinds[0] != model.ConfigUp {
		t.Fatalf("inactive hint must not steer: %v", kinds)
	}
}

func TestPrefetchGroupVersionFetchesBothDirections(t *testing.T) {
	g := model.NewGraph()
	var f model.FreqProfile
	f[model.VersionAncestor] = 0.9
	ty, _ := g.DefineType("t", model.NilType, 3000, f, nil)
	st := storage.NewManager(g, 4096)
	a, _ := g.NewObject("A", 1, ty)
	b, _ := g.Derive(a.ID)
	c, _ := g.Derive(b.ID)
	for _, o := range []*model.Object{a, b, c} {
		pg := st.AllocatePage()
		if err := st.Place(o.ID, pg); err != nil {
			t.Fatal(err)
		}
	}
	group := AppendPrefetchGroup(nil, g, st, b, NoHints, Hint{})
	if len(group) != 2 {
		t.Fatalf("version prefetch group must include ancestor and descendants: %v", group)
	}
}

func TestContextBoostPagesBounded(t *testing.T) {
	f := newFixture(t, 256, 8) // tiny pages: every object on its own page
	root, _ := f.g.NewObject("R", 1, f.rootT)
	f.mustPlace(t, root)
	for i := 0; i < 10; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		f.mustPlace(t, leaf)
	}
	got := AppendContextBoostPages(nil, f.g, f.st, root, ContextNeighborLimit)
	if len(got) > ContextNeighborLimit {
		t.Fatalf("boost pages %d exceed limit %d", len(got), ContextNeighborLimit)
	}
	if len(got) == 0 {
		t.Fatal("expected some boost pages")
	}
}

// The boost set merges the two top-ranked kinds' pages in rank order,
// keeping each page once.
func TestMergePagesDedups(t *testing.T) {
	g := model.NewGraph()
	var f model.FreqProfile
	f[model.ConfigDown] = 0.5
	f[model.Correspondence] = 0.4
	ty, _ := g.DefineType("t", model.NilType, 3000, f, nil)
	st := storage.NewManager(g, 4096)
	var objs [4]*model.Object // x and a, b, c, one page each
	for i := range objs {
		objs[i], _ = g.NewObject(string(rune('A'+i)), 1, ty)
		if err := st.Place(objs[i].ID, st.AllocatePage()); err != nil {
			t.Fatal(err)
		}
	}
	x, a, b, c := objs[0], objs[1], objs[2], objs[3]
	for _, err := range []error{
		g.Attach(x.ID, a.ID), g.Attach(x.ID, b.ID),
		g.Correspond(x.ID, b.ID), g.Correspond(x.ID, c.ID),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	got := AppendContextBoostPages(nil, g, st, x, 8)
	want := []storage.PageID{st.PageOf(a.ID), st.PageOf(b.ID), st.PageOf(c.ID)}
	if len(got) != len(want) {
		t.Fatalf("merge: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge order: %v, want %v", got, want)
		}
	}
}
