package buffer

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

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
	if !p.shardFor(1).IsDirty(1) {
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
// mixed access/install/dirty/boost load, each through a view of its own and
// the pool directly. The invariant check, the race detector and hit
// conservation are the assertions: once every view has drained, each
// access and each resident install is one hit or one miss.
func TestConcurrentPoolStress(t *testing.T) {
	const (
		capacity   = 64
		shards     = 4
		goroutines = 16
		opsPer     = 3000
	)
	p := newTestConcurrentPool(t, capacity, shards)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accesses int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := p.NewView()
			defer v.Drain()
			n := 0
			defer func() {
				mu.Lock()
				accesses += n
				mu.Unlock()
			}()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPer; i++ {
				pg := storage.PageID(1 + rng.Intn(256))
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // access dominates
					if _, err := v.Access(pg); err != nil {
						t.Errorf("Access(%d): %v", pg, err)
						return
					}
					n++
				case 4:
					if _, err := p.Access(pg); err != nil {
						t.Errorf("Access(%d): %v", pg, err)
						return
					}
					n++
				case 5:
					res, err := v.Install(pg)
					if err != nil {
						t.Errorf("Install(%d): %v", pg, err)
						return
					}
					if res.Hit {
						n++
					}
				case 6:
					_ = v.MarkDirty(pg)
				case 7:
					v.Boost(pg)
				case 8:
					p.Boost(pg)
				case 9:
					v.Contains(pg)
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
	if s.Hits+s.Misses != accesses {
		t.Fatalf("%d hits + %d misses for %d accesses", s.Hits, s.Misses, accesses)
	}
}

// TestShardPadding: a shard fills whole 128-byte blocks, so neighbouring
// shards' mutexes and counters never share a cache line, and the eviction
// epoch every view hit loads sits in a block of its own.
func TestShardPadding(t *testing.T) {
	if size := unsafe.Sizeof(cshard{}); size%128 != 0 {
		t.Fatalf("cshard is %d bytes, not a multiple of 128", size)
	}
	if off := unsafe.Offsetof(cshard{}.mu); off < 128 {
		t.Fatalf("shard mutex at offset %d shares the epoch's 128-byte block", off)
	}
}

// TestViewSingleSessionExact: one view over a multi-shard pool gives the
// eager pool's answers, victims and statistics on a hot-set-plus-scan
// load that both evicts and hits, and defers most of its hits.
func TestViewSingleSessionExact(t *testing.T) {
	const capacity, shards = 32, 4
	vp := newTestConcurrentPool(t, capacity, shards)
	eager := newTestConcurrentPool(t, capacity, shards)
	v := vp.NewView()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		pg := storage.PageID(1 + rng.Intn(24))
		if rng.Intn(4) == 0 {
			pg = storage.PageID(1 + rng.Intn(400))
		}
		got, err := v.Access(pg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eager.Access(pg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("access %d of page %d: view %+v, eager %+v", i, pg, got, want)
		}
	}
	pending := 0
	for _, q := range v.pending {
		pending += q.n
	}
	v.Drain()
	if got, want := vp.Stats(), eager.Stats(); got != want {
		t.Fatalf("Stats: view %+v, eager %+v", got, want)
	}
	if s := vp.Stats(); pending == 0 || s.Evictions == 0 {
		t.Fatalf("load never left touches pending (%d) or never evicted: %+v", pending, s)
	}
}
