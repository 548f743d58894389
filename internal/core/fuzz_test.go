package core

import (
	"math/rand"
	"testing"

	"oodb/internal/storage"
)

// FuzzSplit drives both partitioners with fuzz-chosen instance shapes and
// checks the structural invariants that must hold for any input: capacity
// respected, sides partition the node set, reported cut matches the
// partition, and the optimal cut never exceeds the greedy one.
func FuzzSplit(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(300))
	f.Add(int64(42), uint8(15), uint16(800))
	f.Add(int64(7), uint8(28), uint16(500))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, capSlack uint16) {
		n := 2 + int(nodes%32)
		rng := rand.New(rand.NewSource(seed))
		g, ids := randomPartGraph(rng, n)
		pg := BuildPartGraph(g, ids)
		total := 0
		for _, s := range pg.Sizes {
			total += s
		}
		capacity := total/2 + int(capSlack)
		gr, gok := GreedySplit(pg, capacity)
		op, ook := OptimalSplit(pg, capacity)
		if gok && !ook {
			t.Fatal("optimal failed where greedy succeeded")
		}
		for name, part := range map[string]struct {
			p  Partition
			ok bool
		}{"greedy": {gr, gok}, "optimal": {op, ook}} {
			if !part.ok {
				continue
			}
			if len(part.p.Side) != n {
				t.Fatalf("%s: side vector length %d", name, len(part.p.Side))
			}
			a, b := pg.sideSizes(part.p.Side)
			if a > capacity || b > capacity {
				t.Fatalf("%s: capacity violated (%d,%d > %d)", name, a, b, capacity)
			}
			if d := part.p.Cut - pg.cutOf(part.p.Side); d > 1e-6 || d < -1e-6 {
				t.Fatalf("%s: cut %v does not match partition %v", name, part.p.Cut, pg.cutOf(part.p.Side))
			}
		}
		if gok && ook && op.Cut > gr.Cut+1e-6 {
			t.Fatalf("optimal cut %v worse than greedy %v", op.Cut, gr.Cut)
		}
	})
}

// FuzzContextPolicy hammers the segmented replacement policy with arbitrary
// operation sequences; residency bookkeeping must stay consistent.
func FuzzContextPolicy(f *testing.F) {
	f.Add(int64(3), uint16(200))
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		rng := rand.New(rand.NewSource(seed))
		c := NewContextPolicy(4)
		resident := map[uint32]bool{}
		for i := 0; i < int(steps%1024); i++ {
			pg := uint32(1 + rng.Intn(20))
			switch rng.Intn(4) {
			case 0:
				if !resident[pg] {
					c.Admitted(storage.PageID(pg))
					resident[pg] = true
				}
			case 1:
				c.Touched(storage.PageID(pg))
			case 2:
				c.Boosted(storage.PageID(pg))
			case 3:
				if resident[pg] {
					c.Removed(storage.PageID(pg))
					delete(resident, pg)
				}
			}
			if c.Tracked() != len(resident) {
				t.Fatalf("tracked %d != resident %d", c.Tracked(), len(resident))
			}
		}
		// Victim selection must return a resident page while any exist.
		for len(resident) > 0 {
			v, ok := c.Victim()
			if !ok {
				t.Fatal("victim unavailable with resident pages")
			}
			if !resident[uint32(v)] {
				t.Fatalf("victim %d not resident", v)
			}
			c.Removed(v)
			delete(resident, uint32(v))
		}
	})
}
