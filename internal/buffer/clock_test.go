package buffer

import (
	"testing"

	"oodb/internal/storage"
)

func TestClockSecondChance(t *testing.T) {
	c := NewClock()
	for pg := storage.PageID(1); pg <= 3; pg++ {
		c.Admitted(pg)
	}
	// All reference bits are set on admission: the first victim sweep clears
	// 1..3 and then takes page 1 on the second lap.
	v, ok := c.Victim()
	if !ok || v != 1 {
		t.Fatalf("victim = %d,%v, want 1,true", v, ok)
	}
	c.Removed(v)

	// A touch between sweeps buys page 2 another lap, so page 3 goes first.
	c.Touched(2)
	v, ok = c.Victim()
	if !ok || v != 3 {
		t.Fatalf("victim after touch = %d,%v, want 3,true", v, ok)
	}
}

func TestClockBoostProtects(t *testing.T) {
	c := NewClock()
	c.Admitted(1)
	c.Admitted(2)
	// First sweep clears both bits and picks page 1, leaving the hand on
	// page 2 — which is therefore the next victim unless something re-marks
	// it.
	if v, _ := c.Victim(); v != 1 {
		t.Fatalf("first victim = %d, want 1", v)
	}
	c.Boosted(2) // reference bit set again: 2 survives the next sweep
	if v, _ := c.Victim(); v != 1 {
		t.Fatalf("victim after boosting 2 = %d, want 1", v)
	}
}

func TestClockRemovalKeepsIndexConsistent(t *testing.T) {
	c := NewClock()
	for pg := storage.PageID(1); pg <= 8; pg++ {
		c.Admitted(pg)
	}
	c.Removed(4)
	c.Removed(8)
	c.Removed(1)
	if c.Len() != 5 {
		t.Fatalf("len = %d, want 5", c.Len())
	}
	seen := map[storage.PageID]bool{}
	for i := 0; i < c.Len(); i++ {
		pg := c.pages[i]
		if got := int(c.index.Get(pg)) - 1; got != i {
			t.Fatalf("index[%d] = %d, want %d", pg, got, i)
		}
		seen[pg] = true
	}
	for _, pg := range []storage.PageID{2, 3, 5, 6, 7} {
		if !seen[pg] {
			t.Fatalf("page %d lost after removals", pg)
		}
	}
	for _, pg := range []storage.PageID{1, 4, 8} {
		if c.index.Get(pg) != 0 {
			t.Fatalf("removed page %d still indexed", pg)
		}
	}
}

func TestClockSteadyStateAllocs(t *testing.T) {
	c := NewClock()
	for pg := storage.PageID(1); pg <= 32; pg++ {
		c.Admitted(pg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Touched(5)
		c.Boosted(9)
		v, ok := c.Victim()
		if !ok {
			t.Fatal("no victim")
		}
		c.Removed(v)
		c.Admitted(v)
	})
	if allocs != 0 {
		t.Fatalf("clock steady state allocates %.1f per run, want 0", allocs)
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := map[string]bool{"lru": false, "random": false, "clock": false, "contextsensitive": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if n == "contextsensitive" {
			continue // registered by internal/core; checked in its own tests
		}
		if !seen {
			t.Fatalf("registry missing %q (have %v)", n, names)
		}
	}

	p, err := NewPolicyByName("Clock", PolicyConfig{Frames: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "CLOCK" {
		t.Fatalf("policy name = %q, want CLOCK", p.Name())
	}
	if _, err := NewPolicyByName("no-such-policy", PolicyConfig{}); err == nil {
		t.Fatal("unknown policy name must error")
	}

	// A pool built from a registry policy behaves like any other.
	pool := NewPool(2, p)
	for pg := storage.PageID(1); pg <= 4; pg++ {
		if _, err := pool.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	if pool.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", pool.Resident())
	}
}
