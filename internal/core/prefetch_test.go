package core

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// prefetchFixture: a root whose leaves live on a different, non-resident
// page.
func prefetchFixture(t *testing.T) (*fixture, *model.Object, *Prefetcher) {
	t.Helper()
	f := newFixture(t, 4096, 4)
	root, _ := f.g.NewObject("R", 1, f.rootT)
	root.Size = 4000
	f.mustPlace(t, root)
	for i := 0; i < 3; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		f.mustPlace(t, leaf)
	}
	// Evict everything so prefetch behavior is observable.
	for i := 0; i < 8; i++ {
		pg := f.st.AllocatePage()
		f.pool.Access(pg) //nolint:errcheck
	}
	pf := &Prefetcher{Graph: f.g, Store: f.st, Pool: f.pool}
	return f, root, pf
}

func TestNoPrefetchDoesNothing(t *testing.T) {
	f, root, pf := prefetchFixture(t)
	pf.Policy = NoPrefetch
	ios, err := pf.OnAccess(root)
	if err != nil || len(ios) != 0 {
		t.Fatalf("ios=%v err=%v", ios, err)
	}
	if pf.GroupPages != 0 || pf.PrefetchReads != 0 {
		t.Fatalf("stats: %+v", pf)
	}
	_ = f
}

func TestPrefetchWithinBufferNeverIssuesIO(t *testing.T) {
	f, root, pf := prefetchFixture(t)
	pf.Policy = PrefetchWithinBuffer
	ios, err := pf.OnAccess(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ios) != 0 || pf.PrefetchReads != 0 {
		t.Fatal("within-buffer prefetch must never trigger I/O")
	}
	// Non-resident group page: no boost either.
	if pf.BoostsIssued != 0 {
		t.Fatal("boost issued for non-resident page")
	}
	// Make the leaf page resident, then boost fires.
	leafPg := f.st.PageOf(root.Components()[0])
	f.pool.Access(leafPg) //nolint:errcheck
	if _, err := pf.OnAccess(root); err != nil {
		t.Fatal(err)
	}
	if pf.BoostsIssued != 1 {
		t.Fatalf("boosts=%d", pf.BoostsIssued)
	}
}

// staleFrames answers Contains as a concurrent pool can when another
// session evicts the page right after the probe: resident, though the
// pool no longer holds it.
type staleFrames struct{ buffer.Frames }

func (staleFrames) Contains(storage.PageID) bool { return true }

// TestPrefetchCountsOnlyPerformedBoosts: a group page the pool does not
// hold is not counted as boosted, whatever a separate probe said.
func TestPrefetchCountsOnlyPerformedBoosts(t *testing.T) {
	_, root, pf := prefetchFixture(t)
	pf.Policy = PrefetchWithinBuffer
	pf.Pool = staleFrames{pf.Pool}
	if _, err := pf.OnAccess(root); err != nil || pf.BoostsIssued != 0 {
		t.Fatalf("boosts=%d err=%v for a group the pool does not hold", pf.BoostsIssued, err)
	}
}

func TestPrefetchWithinDBFetches(t *testing.T) {
	f, root, pf := prefetchFixture(t)
	pf.Policy = PrefetchWithinDB
	ios, err := pf.OnAccess(root)
	if err != nil {
		t.Fatal(err)
	}
	if pf.PrefetchReads == 0 || len(ios) == 0 {
		t.Fatal("within-DB prefetch must fetch the group")
	}
	leafPg := f.st.PageOf(root.Components()[0])
	if !f.pool.Contains(leafPg) {
		t.Fatal("group page not resident after prefetch")
	}
	// A second access finds the group resident: no new reads.
	before := pf.PrefetchReads
	if _, err := pf.OnAccess(root); err != nil {
		t.Fatal(err)
	}
	if pf.PrefetchReads != before {
		t.Fatal("resident group re-fetched")
	}
}

func TestExpandAccess(t *testing.T) {
	f := newFixture(t, 4096, 1)
	pg1 := f.st.AllocatePage()
	pg2 := f.st.AllocatePage()
	res, _ := f.pool.Access(pg1)
	ios := AppendExpandAccess(nil, res, pg1)
	if len(ios) != 1 || ios[0].Kind != ReadIO || ios[0].Page != pg1 {
		t.Fatalf("miss expansion: %v", ios)
	}
	f.pool.MarkDirty(pg1) //nolint:errcheck
	res, _ = f.pool.Access(pg2)
	ios = AppendExpandAccess(nil, res, pg2)
	if len(ios) != 2 || ios[0].Kind != WriteIO || ios[0].Page != pg1 || ios[1].Kind != ReadIO {
		t.Fatalf("dirty-victim expansion: %v", ios)
	}
	res, _ = f.pool.Access(pg2)
	if got := AppendExpandAccess(nil, res, pg2); got != nil {
		t.Fatalf("hit expansion: %v", got)
	}
}

func TestPhysIOConstructors(t *testing.T) {
	if io := ReadOf(5); io.Kind != ReadIO || io.Page != 5 || io.Log {
		t.Fatalf("ReadOf: %+v", io)
	}
	if io := WriteOf(6); io.Kind != WriteIO || io.Page != 6 || io.Log {
		t.Fatalf("WriteOf: %+v", io)
	}
	if io := LogWrite(); io.Kind != WriteIO || !io.Log {
		t.Fatalf("LogWrite: %+v", io)
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[string]string{
		PolicyNoCluster.String():      "No_Cluster",
		PolicyWithinBuffer.String():   "Cluster_within_Buffer",
		PolicyIOLimit2.String():       "2_IO_limit",
		PolicyIOLimit10.String():      "10_IO_limit",
		PolicyNoLimit.String():        "No_limit",
		NoSplit.String():              "No_Splitting",
		LinearSplit.String():          "Linear_Split",
		NPSplit.String():              "NP_Split",
		NoPrefetch.String():           "No_prefetch",
		PrefetchWithinBuffer.String(): "Prefetch_within_buffer",
		PrefetchWithinDB.String():     "Prefetch_within_DB",
		ReplLRU.String():              "LRU",
		ReplContext.String():          "Context-sensitive",
		ReplRandom.String():           "Random",
		NoHints.String():              "No_hint",
		UserHints.String():            "User_hint",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q want %q", got, want)
		}
	}
}
