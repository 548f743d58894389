package oodb

import (
	"bytes"
	"fmt"
	"testing"
)

func openTest(t *testing.T, opt Options) *DB {
	t.Helper()
	db, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// schema defines a root/leaf pair for API tests.
func schema(t *testing.T, db *DB) (root, leaf TypeID) {
	t.Helper()
	var rf, lf FreqProfile
	rf[ConfigDown] = 0.5
	rf[Correspondence] = 0.2
	lf[ConfigUp] = 0.6
	var err error
	root, err = db.DefineType("root", NilType, 200, rf, []AttrDef{
		{Name: "hot", Size: 16, AccessFreq: 0.9},
		{Name: "cold", Size: 1024, AccessFreq: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err = db.DefineType("leaf", NilType, 100, lf, nil)
	if err != nil {
		t.Fatal(err)
	}
	return root, leaf
}

func TestOpenDefaults(t *testing.T) {
	db := openTest(t, Options{})
	if db.opt.PageSize != 4096 || db.opt.BufferFrames != 1000 {
		t.Fatalf("defaults: %+v", db.opt)
	}
	if _, err := Open(Options{Replacement: "fifo"}); err == nil {
		t.Fatal("bad replacement accepted")
	}
}

func TestCreateAndGet(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r, err := db.CreateObject("ALU", 1, rootT)
	if err != nil {
		t.Fatal(err)
	}
	if db.Triple(r.ID) != "ALU[1].root" {
		t.Fatalf("triple %q", db.Triple(r.ID))
	}
	l, err := db.CreateAttached("C", 1, leafT, r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if db.PageOf(l.ID) != db.PageOf(r.ID) {
		t.Fatal("CreateAttached did not co-locate with the composite")
	}
	got, err := db.Get(l.ID)
	if err != nil || got.ID != l.ID {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := db.Get(ObjectID(999)); err == nil {
		t.Fatal("get of unknown object succeeded")
	}
	if db.NumObjects() != 2 || db.NumPages() == 0 {
		t.Fatalf("counts: %d objects %d pages", db.NumObjects(), db.NumPages())
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGetClosure(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r, _ := db.CreateObject("R", 1, rootT)
	for i := 0; i < 4; i++ {
		if _, err := db.CreateAttached(fmt.Sprintf("L%d", i), 1, leafT, r.ID); err != nil {
			t.Fatal(err)
		}
	}
	comps, err := db.GetClosure(r.ID, ConfigDown)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 4 {
		t.Fatalf("closure size %d", len(comps))
	}
	ups, err := db.GetClosure(comps[0].ID, ConfigUp)
	if err != nil || len(ups) != 1 || ups[0].ID != r.ID {
		t.Fatalf("upward closure: %v %v", ups, err)
	}
}

func TestDeriveAndAttrImpls(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, _ := schema(t, db)
	a, _ := db.CreateObject("X", 1, rootT)
	sizeV1 := a.Size
	d, err := db.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != 2 || d.Ancestor != a.ID {
		t.Fatalf("derived: %+v", d)
	}
	// The 1 KB cold attribute goes by-reference on the derived version.
	if d.Size >= sizeV1 {
		t.Fatalf("derived version should shrink: %d -> %d", sizeV1, d.Size)
	}
}

func TestCorrespondAndRecluster(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, _ := schema(t, db)
	a, _ := db.CreateObject("A", 1, rootT)
	b, _ := db.CreateObject("B", 1, rootT)
	if err := db.Correspond(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Correspondents()) != 1 || len(b.Correspondents()) != 1 {
		t.Fatal("correspondence not recorded")
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAttachReclusters(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 32, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r1, _ := db.CreateObject("R1", 1, rootT)
	r2, _ := db.CreateObject("R2", 1, rootT)
	l, _ := db.CreateAttached("L", 1, leafT, r1.ID)
	if db.PageOf(l.ID) != db.PageOf(r1.ID) {
		t.Fatal("setup: leaf not with r1")
	}
	// Re-attaching to r2 (with more links) triggers run-time reclustering;
	// the leaf stays where affinity is highest, which after a second and
	// third attachment to r2's page content shifts.
	if err := db.Attach(r2.ID, l.ID); err != nil {
		t.Fatal(err)
	}
	if db.Stats().ClusterMoves > 0 && db.PageOf(l.ID) == NilPage {
		t.Fatal("move lost the object")
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHintsAPI(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	db.RegisterHint(Correspondence)
	if db.clust.Hint.Kind != Correspondence || !db.clust.Hint.Active {
		t.Fatal("hint not registered with the clusterer")
	}
	if db.pf.Hint.Kind != Correspondence {
		t.Fatal("hint not registered with the prefetcher")
	}
	db.ClearHint()
	if db.clust.Hints != 0 {
		t.Fatal("hint not cleared")
	}
}

func TestIOAccounting(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 4, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	var ids []ObjectID
	for i := 0; i < 20; i++ {
		r, err := db.CreateObject(fmt.Sprintf("R%d", i), 1, rootT)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateAttached("L", i, leafT, r.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, r.ID)
	}
	for _, id := range ids {
		if _, err := db.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.LogicalReads != 20 {
		t.Fatalf("logical reads %d", st.LogicalReads)
	}
	if st.PageReads == 0 {
		t.Fatal("a 4-frame pool over 20+ pages must miss")
	}
	if st.HitRatio < 0 || st.HitRatio > 1 {
		t.Fatalf("hit ratio %v", st.HitRatio)
	}
}

func TestSimulationFacade(t *testing.T) {
	cfg := DefaultSimConfig(0.01)
	cfg.Transactions = 150
	res, err := RunSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < cfg.Transactions || res.MeanResponse <= 0 {
		t.Fatalf("results: %+v", res)
	}
}

func TestExperimentFacade(t *testing.T) {
	ids := Experiments()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments", len(ids))
	}
	tb, err := RunExperiment("fig3.2", ExperimentOptions{Scale: 0.01, Transactions: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("rows=%d", len(tb.Rows))
	}
	_, err = RunExperiment("nope", ExperimentOptions{})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	var ue *UnknownExperimentError
	if ok := errorsAs(err, &ue); !ok || ue.ID != "nope" {
		t.Fatalf("error type: %v", err)
	}
}

// errorsAs avoids importing errors just for one assertion.
func errorsAs(err error, target **UnknownExperimentError) bool {
	if e, ok := err.(*UnknownExperimentError); ok {
		*target = e
		return true
	}
	return false
}

func TestReplacementOptionsWork(t *testing.T) {
	// Beyond the paper's three, any registered policy opens by name.
	for _, repl := range []Replacement{ReplLRU, ReplContext, ReplRandom, "clock"} {
		db := openTest(t, Options{BufferFrames: 8, Replacement: repl, Cluster: PolicyNoLimit})
		rootT, _ := schema(t, db)
		for i := 0; i < 30; i++ {
			if _, err := db.CreateObject(fmt.Sprintf("R%d", i), 1, rootT); err != nil {
				t.Fatalf("%v: %v", repl, err)
			}
		}
		if err := db.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", repl, err)
		}
	}
}

func TestRunExperimentsShared(t *testing.T) {
	opt := ExperimentOptions{Scale: 0.008, Transactions: 200, Seed: 1}
	tables, err := RunExperiments([]string{"fig3.2", "fig3.4"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "fig3.2" || tables[1].ID != "fig3.4" {
		t.Fatalf("tables: %v", tables)
	}
	if _, err := RunExperiments([]string{"fig3.2", "bogus"}, opt); err == nil {
		t.Fatal("bogus id accepted")
	}
	var ue *UnknownExperimentError
	_, err = RunExperiments([]string{"bogus"}, opt)
	if !errorsAs(err, &ue) || ue.Error() == "" {
		t.Fatalf("error: %v", err)
	}
}

func TestAttachCorrespondErrors(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 8, Cluster: PolicyNoLimit})
	rootT, _ := schema(t, db)
	a, _ := db.CreateObject("A", 1, rootT)
	if err := db.Attach(a.ID, a.ID); err == nil {
		t.Fatal("self attach accepted")
	}
	if err := db.Attach(a.ID, ObjectID(999)); err == nil {
		t.Fatal("attach to unknown accepted")
	}
	if err := db.Correspond(a.ID, a.ID); err == nil {
		t.Fatal("self correspond accepted")
	}
	b, _ := db.CreateObject("B", 1, rootT)
	if err := db.Correspond(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.Correspond(a.ID, b.ID); err == nil {
		t.Fatal("duplicate correspond accepted")
	}
}

func TestDeleteAPI(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r, _ := db.CreateObject("R", 1, rootT)
	l, _ := db.CreateAttached("L", 1, leafT, r.ID)
	if err := db.Delete(r.ID); err == nil {
		t.Fatal("deleting a composite must fail")
	}
	if err := db.Delete(l.ID); err != nil {
		t.Fatal(err)
	}
	if db.NumObjects() != 1 {
		t.Fatalf("objects=%d", db.NumObjects())
	}
	if len(r.Components()) != 0 {
		t.Fatal("composite still lists deleted component")
	}
	if _, err := db.Get(l.ID); err == nil {
		t.Fatal("deleted object readable")
	}
	if err := db.Delete(l.ID); err == nil {
		t.Fatal("double delete accepted")
	}
	// Now the root is a leaf and deletable; its page space is reclaimed.
	if err := db.Delete(r.ID); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWithDeletions(t *testing.T) {
	db := buildSnapshotFixture(t)
	// Delete a couple of leaves to punch ID holes.
	deleted := 0
	for id := ObjectID(1); int(id) <= db.NumObjects()+deleted && deleted < 2; id++ {
		o := db.graph.Object(id)
		if o == nil || len(o.Components()) > 0 || len(o.Descendants()) > 0 {
			continue
		}
		if err := db.Delete(id); err == nil {
			deleted++
		}
	}
	if deleted != 2 {
		t.Fatalf("deleted %d", deleted)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Options{BufferFrames: 16})
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumObjects() != db.NumObjects() {
		t.Fatalf("objects %d vs %d", db2.NumObjects(), db.NumObjects())
	}
	// IDs are preserved across the holes.
	found := false
	db.graph.ForEachObject(func(o *Object) {
		if db2.Triple(o.ID) != db.Triple(o.ID) {
			t.Fatalf("object %d identity shifted: %q vs %q",
				o.ID, db.Triple(o.ID), db2.Triple(o.ID))
		}
		found = true
	})
	if !found {
		t.Fatal("no objects compared")
	}
}

// TestDeleteOfEvictedPagePaysItsIO: deleting an object whose page has left
// the pool re-fetches the page and leaves it dirty, so its eviction costs a
// write — the library runs the engines' write tail, not a resident-only
// shortcut.
func TestDeleteOfEvictedPagePaysItsIO(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 4})
	rootT, _ := schema(t, db)
	var ids []ObjectID
	for i := 0; i < 40; i++ {
		o, err := db.CreateObject(fmt.Sprintf("R%d", i), 1, rootT)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, o.ID)
	}
	// cycle reads every survivor but the first, flushing whatever is dirty
	// and leaving the first object's page evicted.
	cycle := func() {
		for _, id := range ids[1:] {
			if _, err := db.Get(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	before := db.Stats()
	cycle()
	if st := db.Stats(); st.PageWrites != before.PageWrites {
		t.Fatalf("setup: read-only cycle wrote %d pages", st.PageWrites-before.PageWrites)
	}

	before = db.Stats()
	if err := db.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().PageReads - before.PageReads; got != 1 {
		t.Fatalf("Delete of an evicted object's page issued %d page reads, want 1", got)
	}
	cycle()
	if got := db.Stats().PageWrites - before.PageWrites; got != 1 {
		t.Fatalf("the deleted-from page cost %d page writes on eviction, want 1", got)
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGetResidentAllocFree: under the context-sensitive policy a Get of a
// resident object with structural neighbours computes its boost set in the
// stack's scratch and allocates nothing.
func TestGetResidentAllocFree(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 64, Replacement: ReplContext, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r, _ := db.CreateObject("R", 1, rootT)
	offPage := 0
	for i := 0; i < 60; i++ {
		l, err := db.CreateAttached(fmt.Sprintf("L%d", i), 1, leafT, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		if db.PageOf(l.ID) != db.PageOf(r.ID) {
			offPage++
		}
	}
	if offPage == 0 {
		t.Fatal("setup: every component shares the composite's page, nothing to boost")
	}
	if _, err := db.Get(r.ID); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Get(r.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Get of a resident object allocates %.1f per call, want 0", allocs)
	}
}
