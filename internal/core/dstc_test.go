package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// dstcFixture builds a DSTC clusterer over the shared test graph/storage/
// pool fixture, with a root object and n leaves attached under it, every
// object placed through the strategy itself.
func dstcFixture(t *testing.T, n int) (*fixture, *DSTCClusterer, *model.Object) {
	t.Helper()
	f := newFixture(t, 4096, 16)
	s := NewDSTCClusterer(f.g, f.st, f.pool)
	root, err := f.g.NewObject("R", 1, f.rootT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PlaceNew(root); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		leaf := f.newLeafUnder(t, root.ID, i)
		if _, err := s.PlaceNew(leaf); err != nil {
			t.Fatal(err)
		}
	}
	return f, s, root
}

// TestDSTCWindowCountersMergeAssociatively: the observation window is a sum
// of per-object counts, so applying the same access multiset serially, in
// reverse, partitioned, or from racing goroutines must converge to the
// identical heat vector and window fill. This is the property that lets
// concurrent reader sessions share one strategy instance: order and
// interleaving of NoteAccess calls cannot matter.
func TestDSTCWindowCountersMergeAssociatively(t *testing.T) {
	const leaves = 12
	rng := rand.New(rand.NewSource(42))
	accesses := make([]model.ObjectID, 500)
	for i := range accesses {
		accesses[i] = model.ObjectID(1 + rng.Intn(leaves+1))
	}

	// window is what the open observation window holds after a feed.
	type window struct {
		heat []uint32
		ops  uint32
	}
	apply := func(t *testing.T, feed func(*DSTCClusterer)) window {
		t.Helper()
		_, s, _ := dstcFixture(t, leaves)
		s.WindowSize = 1 << 20 // keep the window open: no consolidation
		feed(s)
		return window{heat: s.heat, ops: s.winOps}
	}

	serial := apply(t, func(s *DSTCClusterer) {
		for _, id := range accesses {
			s.NoteAccess(id)
		}
	})
	reversed := apply(t, func(s *DSTCClusterer) {
		for i := len(accesses) - 1; i >= 0; i-- {
			s.NoteAccess(accesses[i])
		}
	})
	concurrent := apply(t, func(s *DSTCClusterer) {
		const parts = 4
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < len(accesses); i += parts {
					s.NoteAccess(accesses[i])
				}
			}(p)
		}
		wg.Wait()
	})

	for name, w := range map[string]window{"reversed": reversed, "concurrent": concurrent} {
		if !reflect.DeepEqual(w.heat, serial.heat) {
			t.Errorf("%s heat diverged:\n%v\n%v", name, w.heat, serial.heat)
		}
		if w.ops != serial.ops {
			t.Errorf("%s window fill %d, serial %d", name, w.ops, serial.ops)
		}
	}
	if serial.ops != uint32(len(accesses)) {
		t.Fatalf("window observed %d of %d accesses", serial.ops, len(accesses))
	}
}

// TestDSTCReorganizeNoopOnOptimalPlacement: when every hot object already
// shares a page with all of its linked neighbors, a triggered
// reorganization must move nothing — the warmest candidate page is always
// the object's own (excluded), so the trigger consolidates and stops.
func TestDSTCReorganizeNoopOnOptimalPlacement(t *testing.T) {
	const leaves = 10
	f, s, root := dstcFixture(t, leaves)
	s.WindowSize = 64
	s.HeatThreshold = 1 // every touched object qualifies

	// The whole cluster fits on one page: placement is already optimal.
	home := f.st.PageOf(root.ID)
	pages := make(map[model.ObjectID]storage.PageID)
	f.g.ForEachObject(func(o *model.Object) {
		pg := f.st.PageOf(o.ID)
		if pg != home {
			t.Fatalf("object %d on page %d, cluster home %d", o.ID, pg, home)
		}
		pages[o.ID] = pg
	})

	// Heat everything past the threshold and fill the window.
	for i := 0; i < s.WindowSize+leaves; i++ {
		s.NoteAccess(model.ObjectID(1 + i%(leaves+1)))
	}
	pl, err := s.Recluster(root)
	if err != nil {
		t.Fatalf("Recluster: %v", err)
	}
	if pl.Moved {
		t.Fatal("Recluster moved an optimally placed object")
	}
	if st := s.Stats(); st.Consolidations != 1 || st.DynMoves != 0 || st.Moves != 0 {
		t.Fatalf("optimal placement still reorganized: %+v", st)
	}
	f.g.ForEachObject(func(o *model.Object) {
		if pg := f.st.PageOf(o.ID); pg != pages[o.ID] {
			t.Errorf("object %d drifted from page %d to %d", o.ID, pages[o.ID], pg)
		}
	})
	if err := f.st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// FuzzDSTCTriggerInvariants: whatever the trigger tuning — window size,
// heat threshold, move budget — a random mix of accesses, reclusterings,
// inserts, and deletes must never break placement conservation: every live
// object stays on exactly one page, and storage invariants hold after
// every triggered reorganization.
func FuzzDSTCTriggerInvariants(f *testing.F) {
	f.Add(uint8(8), uint8(2), uint8(3), int64(1))
	f.Add(uint8(1), uint8(0), uint8(16), int64(7))
	f.Add(uint8(255), uint8(255), uint8(0), int64(99))
	f.Fuzz(func(t *testing.T, window, threshold, maxMoves uint8, seed int64) {
		fx, s, root := dstcFixture(t, 20)
		s.WindowSize = int(window)
		s.HeatThreshold = uint32(threshold)
		s.MaxMoves = int(maxMoves)

		rng := rand.New(rand.NewSource(seed))
		live := []model.ObjectID{root.ID}
		fx.g.ForEachObject(func(o *model.Object) {
			if o.ID != root.ID {
				live = append(live, o.ID)
			}
		})
		next := 100
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // read
				s.NoteAccess(live[rng.Intn(len(live))])
			case op < 7: // structural change -> recluster
				id := live[rng.Intn(len(live))]
				if _, err := s.Recluster(fx.g.Object(id)); err != nil {
					t.Fatalf("step %d: Recluster(%d): %v", step, id, err)
				}
			case op < 9: // insert a new leaf under the root
				leaf := fx.newLeafUnder(t, root.ID, next)
				next++
				if _, err := s.PlaceNew(leaf); err != nil {
					t.Fatalf("step %d: PlaceNew(%d): %v", step, leaf.ID, err)
				}
				live = append(live, leaf.ID)
			default: // delete a leaf (never the root: it anchors structure)
				if len(live) <= 2 {
					continue
				}
				i := 1 + rng.Intn(len(live)-1)
				id := live[i]
				s.NoteRemoved(id)
				if err := fx.st.Remove(id); err != nil {
					t.Fatalf("step %d: Remove(%d): %v", step, id, err)
				}
				if err := fx.g.Detach(root.ID, id); err != nil {
					t.Fatalf("step %d: Detach(%d): %v", step, id, err)
				}
				if err := fx.g.DeleteObject(id); err != nil {
					t.Fatalf("step %d: DeleteObject(%d): %v", step, id, err)
				}
				live = append(live[:i], live[i+1:]...)
			}

			if err := fx.st.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// placed == live: every surviving object on exactly one page.
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
