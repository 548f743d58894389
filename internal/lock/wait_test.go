package lock

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"oodb/internal/model"
)

// TestAcquireWaitGrantsImmediately: an uncontended lock returns without
// blocking.
func TestAcquireWaitGrantsImmediately(t *testing.T) {
	m := NewManager()
	if err := m.AcquireWait(1, 10, Shared); err != nil {
		t.Fatalf("AcquireWait: %v", err)
	}
	if !m.Holds(1, 10) {
		t.Fatal("lock not held after AcquireWait")
	}
	m.Release(1, lockSet(10))
}

// TestAcquireWaitBlocksUntilRelease: a conflicting request parks the
// goroutine and the holder's Release wakes it.
func TestAcquireWaitBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	if err := m.AcquireWait(1, 10, Exclusive); err != nil {
		t.Fatal(err)
	}

	var acquired atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := m.AcquireWait(2, 10, Exclusive); err != nil {
			t.Errorf("waiter AcquireWait: %v", err)
			return
		}
		acquired.Store(true)
		m.Release(2, lockSet(10))
	}()

	if acquired.Load() {
		t.Fatal("waiter acquired while the conflicting lock was held")
	}
	m.Release(1, lockSet(10))
	<-done
	if !acquired.Load() {
		t.Fatal("waiter never acquired after release")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestAcquireWaitStress: many goroutines acquire sorted multi-object lock
// sets (the engine's deadlock-freedom discipline), do a token amount of
// work, and release. Every goroutine must finish — no deadlock, no lost
// grant — and the table must drain.
func TestAcquireWaitStress(t *testing.T) {
	const (
		goroutines = 24
		rounds     = 200
		objects    = 40
	)
	m := NewManagerSharded(8)
	var counters [objects]int64

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for r := 0; r < rounds; r++ {
				txn := id*rounds + r
				// Draw a small lock set, dedup, sort ascending — the
				// global order that makes waits acyclic.
				set := map[model.ObjectID]Mode{}
				for i := 0; i < 1+rng.Intn(4); i++ {
					obj := model.ObjectID(1 + rng.Intn(objects-1)) // 0 is NilObject
					mode := Shared
					if rng.Intn(4) == 0 {
						mode = Exclusive
					}
					if mode > set[obj] {
						set[obj] = mode
					}
				}
				objs := make([]model.ObjectID, 0, len(set))
				for obj := range set {
					objs = append(objs, obj)
				}
				sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
				for _, obj := range objs {
					if err := m.AcquireWait(txn, obj, set[obj]); err != nil {
						t.Errorf("AcquireWait(%d,%d): %v", txn, obj, err)
						return
					}
				}
				// Exclusive holders get sole access to their counter: an
				// increment-read-compare cycle detects any mutual exclusion
				// failure under the race detector and without it.
				for _, obj := range objs {
					if set[obj] == Exclusive {
						v := atomic.AddInt64(&counters[obj], 1)
						if w := atomic.LoadInt64(&counters[obj]); w != v {
							t.Errorf("exclusive counter %d moved %d -> %d under our lock", obj, v, w)
							return
						}
						atomic.AddInt64(&counters[obj], -1)
					}
				}
				m.Release(txn, lockSet(objs...))
			}
		}(g)
	}
	wg.Wait()

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if held := m.Locked(); held != 0 {
		t.Fatalf("%d objects still locked after stress", held)
	}
	s := m.Stats()
	if s.Requests == 0 || s.Releases == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAcquireWaitRecycleStress crowds 16 goroutines onto three objects, so
// nearly every release empties an entry out of its shard's table onto the
// free list while other requests are queued and parked. A recycled entry
// still reachable from an earlier owner, or a table slot shifted under a
// request in flight, shows up here as a race, a lost grant (the test
// hangs) or a broken mutual exclusion check.
func TestAcquireWaitRecycleStress(t *testing.T) {
	const (
		goroutines = 16
		rounds     = 300
		objects    = 3
	)
	m := NewManagerSharded(4)
	// state[obj] is -1 under an exclusive holder, else the reader count.
	var state [objects + 1]atomic.Int64

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(id) + 1))
			for r := 0; r < rounds; r++ {
				txn := id*rounds + r
				var modes [objects + 1]Mode
				var objs []model.ObjectID
				for obj := model.ObjectID(1); obj <= objects; obj++ {
					if rng.Intn(2) == 0 {
						continue
					}
					if id%2 == 0 || rng.Intn(3) == 0 {
						modes[obj] = Exclusive
					}
					objs = append(objs, obj) // ascending: the deadlock-free order
				}
				for _, obj := range objs {
					if err := m.AcquireWait(txn, obj, modes[obj]); err != nil {
						t.Errorf("AcquireWait(%d,%d): %v", txn, obj, err)
						return
					}
				}
				// Enter every object's critical section, then leave it;
				// a failed entry is reported and not undone on leaving.
				var entered [objects + 1]bool
				for _, obj := range objs {
					if modes[obj] == Exclusive {
						entered[obj] = state[obj].CompareAndSwap(0, -1)
					} else {
						entered[obj] = state[obj].Add(1) > 0
					}
					if !entered[obj] {
						t.Errorf("txn %d holds %v on %d beside a conflicting holder", txn, modes[obj], obj)
					}
				}
				runtime.Gosched() // let the others queue behind these locks
				for _, obj := range objs {
					if modes[obj] == Shared {
						state[obj].Add(-1)
					} else if entered[obj] {
						state[obj].Store(0)
					}
				}
				m.Release(txn, lockSet(objs...))
			}
		}(g)
	}
	close(start)
	wg.Wait()

	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if held := m.Locked(); held != 0 {
		t.Fatalf("%d objects still locked after stress", held)
	}
	if s := m.Stats(); s.Conflicts == 0 || s.Granted != s.Requests {
		t.Fatalf("stats = %+v: want conflicts, and every request granted", s)
	}
}
