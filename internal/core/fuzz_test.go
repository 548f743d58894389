package core

import (
	"fmt"
	"math/rand"
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/model"
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

// FuzzSplitDecision gates trySplit's early decline. It draws a page of
// related objects, an incoming object with arcs into it, a next-candidate
// affinity and a split overhead. Whenever splitCannotWin declines, neither
// partitioner may have a feasible partition that would have won. Then
// trySplit itself must take exactly the decision of the reference rule
// (build the graph, run the policy's partitioner, split iff feasible and
// cut + overhead < settle cost), and leave the store consistent when it
// splits.
func FuzzSplitDecision(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(10), false)
	f.Add(int64(2), uint8(20), uint8(3), true)
	f.Add(int64(3), uint8(4), uint8(0), false)
	f.Add(int64(4), uint8(30), uint8(25), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, overhead uint8, np bool) {
		checkSplitDecision(t, seed, nodes, overhead, np)
	})
}

// TestSplitDecisionCases keeps FuzzSplitDecision from passing vacuously: over
// a fixed range of inputs, each policy must see early declines, splits, and
// attempts that get past the early test yet do not split.
func TestSplitDecisionCases(t *testing.T) {
	for _, np := range []bool{false, true} {
		var declined, split, refused int
		for seed := int64(0); seed < 200; seed++ {
			d, s := checkSplitDecision(t, seed, uint8(seed), uint8(seed*7), np)
			switch {
			case d:
				declined++
			case s:
				split++
			default:
				refused++
			}
		}
		if declined == 0 || split == 0 || refused == 0 {
			t.Errorf("np=%v: declined %d, split %d, refused %d; every case must occur", np, declined, split, refused)
		}
	}
}

// checkSplitDecision is FuzzSplitDecision's body. It reports whether the
// early test declined and whether trySplit split.
func checkSplitDecision(t *testing.T, seed int64, nodes, overhead uint8, np bool) (declined, did bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const pageSize = 1024
	g := model.NewGraph()
	var types []model.TypeID
	for i := 0; i < 3; i++ {
		var fp model.FreqProfile
		for k := range fp {
			if rng.Intn(3) > 0 {
				fp[k] = rng.Float64() * 2
			}
		}
		ty, err := g.DefineType(fmt.Sprintf("t%d", i), model.NilType, 0, fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ty)
	}
	newObj := func(i int) *model.Object {
		o, err := g.NewObject("o", i, types[rng.Intn(len(types))])
		if err != nil {
			t.Fatal(err)
		}
		o.Size = int32(16 + rng.Intn(200))
		return o
	}
	st := storage.NewManager(g, pageSize)
	c := NewClusterer(g, st, buffer.NewPool(8, buffer.NewLRU()))
	c.Policy = PolicyNoLimit
	c.Split = LinearSplit
	if np {
		c.Split = NPSplit
	}
	c.SplitOverhead = float64(overhead) / 64

	pg := st.AllocatePage()
	var page []model.ObjectID
	for i := 0; i < 1+int(nodes%40); i++ {
		o := newObj(i)
		if !st.Fits(o.Size, pg) {
			break
		}
		if err := st.Place(o.ID, pg); err != nil {
			t.Fatal(err)
		}
		page = append(page, o.ID)
	}
	link := func(a, b model.ObjectID) {
		if rng.Intn(2) == 0 {
			g.Attach(a, b) //nolint:errcheck // duplicates and self-links are refused, harmlessly
		} else {
			g.Correspond(a, b) //nolint:errcheck
		}
	}
	for e := 0; e < len(page); e++ {
		link(page[rng.Intn(len(page))], page[rng.Intn(len(page))])
	}
	in := newObj(len(page))
	for e := rng.Intn(len(page) + 1); e > 0; e-- {
		p := page[rng.Intn(len(page))]
		if rng.Intn(2) == 0 {
			link(in.ID, p)
		} else {
			link(p, in.ID)
		}
	}
	here := c.Affinity(in, pg)
	next := rng.Float64() * here
	settle := here - next

	graph := c.partGraph(in, pg)
	greedy, gok := GreedySplit(graph, pageSize)
	opt, ook := OptimalSplit(graph, pageSize)
	for name, p := range map[string]struct {
		part Partition
		ok   bool
	}{"greedy": {greedy, gok}, "optimal": {opt, ook}} {
		if p.ok && p.part.Cut < 0 {
			t.Fatalf("%s cut %v is negative", name, p.part.Cut)
		}
		if c.splitCannotWin(settle) && p.ok && p.part.Cut+c.SplitOverhead < settle {
			t.Fatalf("declined early, but the %s split wins: cut %v + overhead %v < settle %v",
				name, p.part.Cut, c.SplitOverhead, settle)
		}
	}
	part, ok := greedy, gok
	if np {
		part, ok = opt, ook
	}
	want := ok && part.Cut+c.SplitOverhead < settle

	declined = c.splitCannotWin(settle)
	_, did, err := c.trySplit(in, pg, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if did != want {
		t.Fatalf("%v: trySplit split=%v, reference rule says %v (settle %v, overhead %v, feasible %v, cut %v)",
			c.Split, did, want, settle, c.SplitOverhead, ok, part.Cut)
	}
	if did {
		if st.PageOf(in.ID) == storage.NilPage {
			t.Fatal("split did not place the incoming object")
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return declined, did
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
			if tracked(c) != len(resident) {
				t.Fatalf("tracked %d != resident %d", tracked(c), len(resident))
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
