package buffer

import (
	"math/rand"
	"sync"
	"testing"

	"oodb/internal/storage"
)

func newTestConcurrentPool(t *testing.T, capacity, shards int) *ConcurrentPool {
	t.Helper()
	policies := make([]Policy, shards)
	for i := range policies {
		var err error
		policies[i], err = NewPolicyByName("lru", PolicyConfig{
			Frames: ShardCapacity(capacity, shards, i),
		})
		if err != nil {
			t.Fatalf("NewPolicyByName: %v", err)
		}
	}
	p, err := NewConcurrentPool(capacity, policies)
	if err != nil {
		t.Fatalf("NewConcurrentPool: %v", err)
	}
	return p
}

func TestConcurrentPoolBasics(t *testing.T) {
	p := newTestConcurrentPool(t, 8, 2)
	if p.Capacity() != 8 || p.Shards() != 2 {
		t.Fatalf("capacity/shards = %d/%d", p.Capacity(), p.Shards())
	}

	res, err := p.Access(storage.PageID(1))
	if err != nil {
		t.Fatalf("Access: %v", err)
	}
	if res.Hit {
		t.Fatal("first access hit")
	}
	res, err = p.Access(storage.PageID(1))
	if err != nil || !res.Hit {
		t.Fatalf("second access: hit=%v err=%v", res.Hit, err)
	}
	if !p.Contains(1) || p.Contains(2) {
		t.Fatal("Contains wrong")
	}

	if err := p.MarkDirty(1); err != nil {
		t.Fatalf("MarkDirty: %v", err)
	}
	if !p.IsDirty(1) {
		t.Fatal("page 1 not dirty")
	}
	if err := p.MarkDirty(99); err == nil {
		t.Fatal("MarkDirty on non-resident page succeeded")
	}

	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestConcurrentPoolShardQuota: a shard never exceeds its frame quota, and
// evictions stay within the faulting page's shard.
func TestConcurrentPoolShardQuota(t *testing.T) {
	const capacity, shards = 16, 4
	p := newTestConcurrentPool(t, capacity, shards)
	for pg := storage.PageID(1); pg <= 500; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatalf("Access(%d): %v", pg, err)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if r := p.Resident(); r > capacity {
		t.Fatalf("%d resident pages over capacity %d", r, capacity)
	}
}

func TestConcurrentPoolRejectsBadShape(t *testing.T) {
	if _, err := NewConcurrentPool(8, nil); err == nil {
		t.Fatal("accepted zero shards")
	}
	three := make([]Policy, 3)
	if _, err := NewConcurrentPool(8, three); err == nil {
		t.Fatal("accepted non-power-of-two shard count")
	}
	one := make([]Policy, 4)
	if _, err := NewConcurrentPool(2, one); err == nil {
		t.Fatal("accepted capacity below shard count")
	}
}

func TestShardCapacitySumsExactly(t *testing.T) {
	for _, tc := range []struct{ capacity, n int }{{10, 4}, {16, 16}, {7, 2}, {1, 1}} {
		sum := 0
		for i := 0; i < tc.n; i++ {
			sum += ShardCapacity(tc.capacity, tc.n, i)
		}
		if sum != tc.capacity {
			t.Fatalf("ShardCapacity(%d,%d) sums to %d", tc.capacity, tc.n, sum)
		}
	}
}

// TestConcurrentPoolStress hammers one pool from many goroutines with a
// mixed access/install/dirty/boost load — the invariant check and the race
// detector are the assertions.
func TestConcurrentPoolStress(t *testing.T) {
	const (
		capacity   = 64
		shards     = 4
		goroutines = 16
		opsPer     = 3000
	)
	p := newTestConcurrentPool(t, capacity, shards)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				pg := storage.PageID(1 + rng.Intn(256))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // access dominates
					if _, err := p.Access(pg); err != nil {
						t.Errorf("Access(%d): %v", pg, err)
						return
					}
				case 5:
					if _, err := p.Install(pg); err != nil {
						t.Errorf("Install(%d): %v", pg, err)
						return
					}
				case 6:
					_ = p.MarkDirty(pg)
				case 7:
					p.Boost(pg)
				case 8:
					p.Contains(pg)
				case 9:
					p.IsDirty(pg)
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()

	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants after stress: %v", err)
	}
	s := p.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("stress run recorded no accesses")
	}
}
