package core

import (
	"math/rand"
	"testing"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// droFixture builds a DRO clusterer over a small-page fixture (few objects
// per page, so deletions can drag a page below the load floor) with a root
// and n leaves placed through the strategy's own sequential fill.
func droFixture(t *testing.T, pageSize, n int) (*fixture, *DROClusterer, *model.Object) {
	t.Helper()
	f := newFixture(t, pageSize, 16)
	d := NewDROClusterer(f.g, f.st, f.pool)
	root, err := f.g.NewObject("R", 1, f.rootT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PlaceNew(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		if _, err := d.PlaceNew(leaf); err != nil {
			t.Fatal(err)
		}
	}
	return f, d, root
}

// droDelete removes a leaf through the full write-path sequence: observer
// notification first (while PageOf still resolves), then storage, then the
// graph.
func droDelete(t *testing.T, f *fixture, d *DROClusterer, root *model.Object, id model.ObjectID) {
	t.Helper()
	d.NoteRemoved(id)
	if err := f.st.Remove(id); err != nil {
		t.Fatalf("Remove(%d): %v", id, err)
	}
	if err := f.g.Detach(root.ID, id); err != nil {
		t.Fatalf("Detach(%d): %v", id, err)
	}
	if err := f.g.DeleteObject(id); err != nil {
		t.Fatalf("DeleteObject(%d): %v", id, err)
	}
}

// TestDROSweepEvacuatesBadPage: deletions drag the first fill page below
// the load floor; the next placement's sweep must evacuate the survivors
// onto the frontier, leaving the bad page empty and every live object
// placed.
func TestDROSweepEvacuatesBadPage(t *testing.T) {
	// 1024-byte pages: root (200) + 8 leaves (100 each) fill page one.
	f, d, root := droFixture(t, 1024, 16)
	d.SweepEvery = 5

	home := f.st.PageOf(root.ID)
	victims := []model.ObjectID{}
	for _, id := range f.st.ObjectsOn(home) {
		if id != root.ID && len(victims) < 5 {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		droDelete(t, f, d, root, id)
	}
	// Page one now holds root + 3 leaves = 500 of 1024 bytes < MinLoad 0.75.
	survivors := append([]model.ObjectID(nil), f.st.ObjectsOn(home)...)

	trigger := f.newLeafUnder(t, root.ID, 1000)
	pl, err := d.PlaceNew(trigger)
	if err != nil {
		t.Fatalf("PlaceNew after deletions: %v", err)
	}
	st := d.Stats()
	if st.Evacuations != 1 {
		t.Fatalf("sweep ran %d evacuations, want 1: %+v", st.Evacuations, st)
	}
	if st.DynMoves != len(survivors) {
		t.Fatalf("evacuated %d objects, want the %d survivors", st.DynMoves, len(survivors))
	}
	if free := f.st.FreeSpace(home); free != f.st.PageSize() {
		t.Fatalf("bad page still holds %d bytes after evacuation", f.st.PageSize()-free)
	}
	for _, id := range survivors {
		if pg := f.st.PageOf(id); pg == storage.NilPage || pg == home {
			t.Fatalf("survivor %d on page %d after evacuation (home %d)", id, pg, home)
		}
	}
	// The evacuated pages ride back in the placement for WAL/dirty charging.
	if !containsPage(pl.DirtyPages, home) {
		t.Fatalf("evacuated page %d missing from DirtyPages %v", home, pl.DirtyPages)
	}
	if err := f.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDROIgnoresWellLoadedPages: removals alone do not trigger moves — a
// watched page that stayed at or above the load floor is left alone, reads
// are statistically invisible, and Recluster never chases structure.
func TestDROIgnoresWellLoadedPages(t *testing.T) {
	f, d, root := droFixture(t, 1024, 16)
	d.SweepEvery = 2

	// Two deletions from page one: 824/1024 used is above the 0.75 floor.
	home := f.st.PageOf(root.ID)
	deleted := 0
	for _, id := range f.st.ObjectsOn(home) {
		if id != root.ID && deleted < 2 {
			droDelete(t, f, d, root, id)
			deleted++
		}
	}
	for i := 0; i < 100; i++ {
		d.NoteAccess(root.ID) // no-op: DRO keeps no read statistics
	}
	before := map[model.ObjectID]storage.PageID{}
	f.g.ForEachObject(func(o *model.Object) { before[o.ID] = f.st.PageOf(o.ID) })

	pl, err := d.Recluster(root)
	if err != nil {
		t.Fatalf("Recluster: %v", err)
	}
	if pl.Moved || pl.Page != home {
		t.Fatalf("Recluster moved a well-placed object: %+v", pl)
	}
	if st := d.Stats(); st.Evacuations != 0 || st.DynMoves != 0 || st.Moves != 0 {
		t.Fatalf("well-loaded page was reorganized: %+v", st)
	}
	f.g.ForEachObject(func(o *model.Object) {
		if pg := f.st.PageOf(o.ID); pg != before[o.ID] {
			t.Errorf("object %d drifted from page %d to %d", o.ID, before[o.ID], pg)
		}
	})
}

// FuzzDROSweepInvariants: whatever the sweep tuning — trigger cadence,
// load floor, watchlist bound — a random mix of inserts, deletes, and
// reclusterings must keep every live object on exactly one page with
// storage invariants intact.
func FuzzDROSweepInvariants(f *testing.F) {
	f.Add(uint8(4), uint8(75), uint8(8), int64(1))
	f.Add(uint8(1), uint8(100), uint8(1), int64(7))
	f.Add(uint8(255), uint8(0), uint8(0), int64(99))
	f.Fuzz(func(t *testing.T, sweepEvery, minLoadPct, maxBad uint8, seed int64) {
		fx, d, root := droFixture(t, 1024, 20)
		d.SweepEvery = int(sweepEvery)
		d.MinLoad = float64(minLoadPct%101) / 100
		d.MaxBad = int(maxBad)

		rng := rand.New(rand.NewSource(seed))
		var live []model.ObjectID
		fx.g.ForEachObject(func(o *model.Object) {
			if o.ID != root.ID {
				live = append(live, o.ID)
			}
		})
		next := 100
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // delete a leaf
				if len(live) == 0 {
					continue
				}
				i := rng.Intn(len(live))
				droDelete(t, fx, d, root, live[i])
				live = append(live[:i], live[i+1:]...)
			case op < 8: // insert a new leaf
				leaf := fx.newLeafUnder(t, root.ID, next)
				next++
				if _, err := d.PlaceNew(leaf); err != nil {
					t.Fatalf("step %d: PlaceNew(%d): %v", step, leaf.ID, err)
				}
				live = append(live, leaf.ID)
			default: // structural change -> recluster
				if _, err := d.Recluster(root); err != nil {
					t.Fatalf("step %d: Recluster: %v", step, err)
				}
			}
			if err := fx.st.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		placed := 0
		fx.g.ForEachObject(func(o *model.Object) {
			if fx.st.PageOf(o.ID) == storage.NilPage {
				t.Errorf("live object %d unplaced after run", o.ID)
			} else {
				placed++
			}
		})
		if placed != fx.g.NumObjects() || placed != fx.st.NumPlaced() {
			t.Fatalf("placed %d, live %d, storage reports %d",
				placed, fx.g.NumObjects(), fx.st.NumPlaced())
		}
	})
}
