package buffer

import (
	"testing"

	"oodb/internal/storage"
)

// The replacement-policy and pool hot paths must not allocate at steady
// state: the intrusive PageList recycles nodes and the frame tables are
// page-indexed slices that stop growing once every page has been seen.
// These gates pin that down.

func TestLRUSteadyStateAllocs(t *testing.T) {
	l := NewLRU()
	const n = 64
	for pg := storage.PageID(1); pg <= n; pg++ {
		l.Admitted(pg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Touched(17)
		l.Boosted(42)
		if _, ok := l.Victim(); !ok {
			t.Fatal("victim must exist")
		}
		// Full residency-churn cycle: evict one page, admit another.
		v, _ := l.Victim()
		l.Removed(v)
		l.Admitted(v)
	})
	if allocs != 0 {
		t.Fatalf("LRU steady state allocates %.1f per run, want 0", allocs)
	}
}

func TestPoolAccessSteadyStateAllocs(t *testing.T) {
	pool := NewPool(32, NewLRU())
	// Warm every page the loop below touches, so every further miss runs
	// the full evict+admit cycle and the page-indexed tables have reached
	// their final size.
	for pg := storage.PageID(1); pg <= 4096; pg++ {
		if _, err := pool.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	next := storage.PageID(129)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := pool.Access(next); err != nil {
			t.Fatal(err)
		}
		pool.Boost(next)
		if err := pool.MarkDirty(next); err != nil {
			t.Fatal(err)
		}
		next++
		if next > 4096 {
			next = 1
		}
	})
	if allocs != 0 {
		t.Fatalf("pool access steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestViewHitAllocs: a view's lock-free hit and the drain a full touch
// list triggers allocate nothing once the stamp table covers the hot set.
func TestViewHitAllocs(t *testing.T) {
	p := newTestConcurrentPool(t, 64, 2)
	v := p.NewView()
	for pg := storage.PageID(1); pg <= 32; pg++ {
		if _, err := v.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	next := storage.PageID(1)
	allocs := testing.AllocsPerRun(100, func() {
		// Three touch lists' worth per run: every run drains.
		for i := 0; i < 3*touchBatch; i++ {
			if res, err := v.Access(next); err != nil || !res.Hit {
				t.Fatalf("Access(%d) = %+v, %v", next, res, err)
			}
			if next++; next > 32 {
				next = 1
			}
		}
		v.Drain()
	})
	if allocs != 0 {
		t.Fatalf("view hits allocate %.1f per run, want 0", allocs)
	}
	if s := p.Stats(); s.Misses != 32 || s.Hits == 0 {
		t.Fatalf("hot set left residency: %+v", s)
	}
}

func TestPageListOrder(t *testing.T) {
	var l PageList
	h1 := l.PushFront(1)
	h2 := l.PushFront(2)
	h3 := l.PushFront(3)
	if l.Len() != 3 || l.Page(l.head) != 3 || l.Page(l.Back()) != 1 {
		t.Fatalf("unexpected order: len=%d front=%d back=%d", l.Len(), l.Page(l.head), l.Page(l.Back()))
	}
	l.MoveToFront(h1)
	if l.Page(l.head) != 1 || l.Page(l.Back()) != 2 {
		t.Fatal("MoveToFront failed")
	}
	l.Remove(h2)
	if l.Len() != 2 || l.Page(l.Back()) != 3 {
		t.Fatal("Remove failed")
	}
	// Free-list reuse: a new push must recycle h2's node index.
	h4 := l.PushFront(4)
	if h4 != h2 {
		t.Fatalf("expected node reuse: got handle %d, want %d", h4, h2)
	}
	got := []storage.PageID{}
	for h := l.Back(); h != 0; h = l.nodes[h].prev {
		got = append(got, l.Page(h))
	}
	want := []storage.PageID{3, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("back-to-front order %v, want %v", got, want)
		}
	}
	_ = h3
}
