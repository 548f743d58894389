package lock

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"oodb/internal/model"
)

// Sharding must never change observable behavior: a single-threaded
// workload produces identical grants, stats, and table state at any shard
// count.
func TestShardCountInvisible(t *testing.T) {
	run := func(shards int) (Stats, []int) {
		m := NewManagerSharded(shards)
		var grants []int
		// Txn 1 takes X on a spread of objects; 2 and 3 queue S; releasing
		// admits them as a batch.
		for i := 1; i <= 40; i++ {
			obj := model.ObjectID(i * 7)
			if ok, err := m.Acquire(1, obj, Exclusive, nil); err != nil || !ok {
				t.Fatalf("txn1 X on %d: ok=%v err=%v", obj, ok, err)
			}
			for _, txn := range []int{2, 3} {
				txn := txn
				ok, err := m.Acquire(txn, obj, Shared, func() { grants = append(grants, txn) })
				if err != nil || ok {
					t.Fatalf("txn%d S on %d: ok=%v err=%v", txn, obj, ok, err)
				}
			}
		}
		m.ReleaseAll(1)
		m.ReleaseAll(2)
		m.ReleaseAll(3)
		if m.Locked() != 0 {
			t.Fatalf("%d objects still locked", m.Locked())
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), grants
	}
	baseStats, baseGrants := run(1)
	for _, n := range []int{4, 64, 256} {
		s, g := run(n)
		if s != baseStats {
			t.Fatalf("shards=%d stats %+v != 1-shard %+v", n, s, baseStats)
		}
		if len(g) != len(baseGrants) {
			t.Fatalf("shards=%d grant count %d != %d", n, len(g), len(baseGrants))
		}
		for i := range g {
			if g[i] != baseGrants[i] {
				t.Fatalf("shards=%d grant order diverges at %d: %v vs %v", n, i, g, baseGrants)
			}
		}
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {9, 16}, {256, 256},
	} {
		if got := NewManagerSharded(tc.in).Shards(); got != tc.want {
			t.Fatalf("NewManagerSharded(%d).Shards() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentDisjointTxns hammers the sharded manager from many
// goroutines, each running its own transactions over an overlapping object
// space. Run under -race this validates the shard locking discipline
// (no two shard mutexes held at once, callbacks fired lock-free).
func TestConcurrentDisjointTxns(t *testing.T) {
	m := NewManagerSharded(8)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				txn := w*1000 + round
				var held []Request
				for i := 0; i < 10; i++ {
					// Overlapping object space across workers forces real
					// conflicts; deadlock-free because every transaction
					// blocks on each lock in the same ascending object
					// order before requesting the next (ordered 2PL).
					obj := model.ObjectID(round*10 + i + 1)
					mode := Shared
					if i%3 == 0 {
						mode = Exclusive
					}
					ch := make(chan struct{})
					granted, err := m.Acquire(txn, obj, mode, func() { close(ch) })
					if err != nil {
						t.Error(err)
						continue
					}
					if !granted {
						<-ch
					}
					held = append(held, Request{obj, mode})
				}
				m.Release(txn, held)
			}
		}()
	}
	wg.Wait()
	if m.Locked() != 0 {
		t.Fatalf("%d objects still locked after all releases", m.Locked())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Requests != workers*200*10 {
		t.Fatalf("requests = %d, want %d", s.Requests, workers*200*10)
	}
	if s.Granted != s.Requests {
		t.Fatalf("granted %d != requests %d (every queued request must eventually grant)", s.Granted, s.Requests)
	}
}

// TestShardPadding: a shard fills whole 128-byte blocks, so neighbouring
// shards' mutexes and counters never share a cache line.
func TestShardPadding(t *testing.T) {
	if size := unsafe.Sizeof(tableShard{}); size%128 != 0 {
		t.Fatalf("tableShard is %d bytes, not a multiple of 128", size)
	}
}

// TestProbedTableChurn drives one shard's open-addressed table through
// several doublings and then empties it in a random order, so backward-
// shift deletion moves entries across long probe runs and around the end
// of the slot array. After every release each held object must still be
// found where a probe for it looks, and the table must end empty.
func TestProbedTableChurn(t *testing.T) {
	m := NewManager()
	rng := rand.New(rand.NewSource(7))
	const n = 300
	objs := make([]model.ObjectID, n)
	for i := range objs {
		objs[i] = model.ObjectID(1 + rng.Intn(1<<20))
		if _, err := m.Acquire(1, objs[i], Shared, nil); err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(objs)
	objs = slices.Compact(objs)
	if got := m.Locked(); got != len(objs) {
		t.Fatalf("Locked = %d, want %d", got, len(objs))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
	for i, obj := range objs {
		m.Release(1, []Request{{Obj: obj}})
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %d releases: %v", i+1, err)
		}
		for _, rest := range objs[i+1:] {
			if !m.Holds(1, rest) {
				t.Fatalf("after releasing %d, object %d is no longer found", obj, rest)
			}
		}
	}
	if got := m.Locked(); got != 0 {
		t.Fatalf("%d objects still locked", got)
	}
}
