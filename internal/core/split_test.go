package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oodb/internal/model"
)

// buildChain creates n objects on a graph connected in a configuration
// chain (each attached to the previous) and returns their IDs.
func buildChain(t testing.TB, n int, size int, freq float64) (*model.Graph, []model.ObjectID) {
	t.Helper()
	g := model.NewGraph()
	var f model.FreqProfile
	f[model.ConfigDown] = freq
	ty, err := g.DefineType("t", model.NilType, size, f, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]model.ObjectID, n)
	for i := 0; i < n; i++ {
		o, err := g.NewObject("o", i, ty)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = o.ID
		if i > 0 {
			if err := g.Attach(ids[i-1], o.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g, ids
}

func TestBuildPartGraph(t *testing.T) {
	g, ids := buildChain(t, 4, 100, 0.5)
	pg := BuildPartGraph(g, ids)
	if len(pg.Nodes) != 4 {
		t.Fatalf("nodes=%d", len(pg.Nodes))
	}
	if len(pg.Arcs) != 3 {
		t.Fatalf("arcs=%d: %+v", len(pg.Arcs), pg.Arcs)
	}
	for _, a := range pg.Arcs {
		if a.W <= 0 {
			t.Fatalf("non-positive arc weight: %+v", a)
		}
	}
}

func TestGreedySplitChain(t *testing.T) {
	g, ids := buildChain(t, 6, 100, 0.5)
	pg := BuildPartGraph(g, ids)
	part, ok := GreedySplit(pg, 300) // 3 objects per side
	if !ok {
		t.Fatal("split must be feasible")
	}
	a, b := pg.sideSizes(part.Side)
	if a > 300 || b > 300 {
		t.Fatalf("sides overflow: %d %d", a, b)
	}
	if a == 0 || b == 0 {
		t.Fatal("split must produce two non-empty sides for an overfull set")
	}
	// A chain of 6 split 3/3 breaks at least one arc.
	if part.Cut <= 0 {
		t.Fatalf("cut=%v", part.Cut)
	}
}

func TestOptimalSplitChainIsMinCut(t *testing.T) {
	g, ids := buildChain(t, 6, 100, 0.5)
	pg := BuildPartGraph(g, ids)
	part, ok := OptimalSplit(pg, 300)
	if !ok {
		t.Fatal("split must be feasible")
	}
	// The optimal 3/3 split of a uniform chain cuts exactly one arc.
	if part.Cut != pg.Arcs[0].W {
		t.Fatalf("optimal cut=%v, want one arc=%v", part.Cut, pg.Arcs[0].W)
	}
}

func TestSplitInfeasible(t *testing.T) {
	g, ids := buildChain(t, 3, 100, 0.5)
	pg := BuildPartGraph(g, ids)
	if _, ok := GreedySplit(pg, 120); ok {
		t.Fatal("3x100 into two 120-byte pages must be infeasible")
	}
	if _, ok := OptimalSplit(pg, 120); ok {
		t.Fatal("optimal split of infeasible instance must fail")
	}
	empty := BuildPartGraph(g, nil)
	if _, ok := GreedySplit(empty, 100); ok {
		t.Fatal("empty graph split must fail")
	}
}

// TestSideObjects: a partition puts every node of the graph on exactly one
// side, and the objects on each side fit one page.
func TestSideObjects(t *testing.T) {
	g, ids := buildChain(t, 4, 100, 0.5)
	pg := BuildPartGraph(g, ids)
	part, ok := OptimalSplit(pg, 200)
	if !ok {
		t.Fatal("split must be feasible")
	}
	if len(part.Side) != len(pg.Nodes) {
		t.Fatalf("%d sides for %d nodes", len(part.Side), len(pg.Nodes))
	}
	sides := map[bool][]model.ObjectID{}
	for i, s := range part.Side {
		sides[s] = append(sides[s], pg.Nodes[i])
	}
	if len(sides[false]) != 2 || len(sides[true]) != 2 {
		t.Fatalf("4x100 bytes over two 200-byte pages must split 2/2: %v", sides)
	}
	seen := map[model.ObjectID]bool{}
	for _, id := range append(sides[false], sides[true]...) {
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("object %d is on neither side: %v", id, sides)
		}
	}
}

// randomPartGraph builds a random feasible instance.
func randomPartGraph(rng *rand.Rand, n int) (*model.Graph, []model.ObjectID) {
	g := model.NewGraph()
	var f model.FreqProfile
	f[model.ConfigDown] = 0.3 + rng.Float64()
	f[model.Correspondence] = rng.Float64() * 0.5
	ty, _ := g.DefineType("t", model.NilType, 0, f, nil)
	ids := make([]model.ObjectID, n)
	for i := 0; i < n; i++ {
		o, _ := g.NewObject("o", i, ty)
		o.Size = int32(40 + rng.Intn(120))
		ids[i] = o.ID
	}
	// Random tree plus extra arcs.
	for i := 1; i < n; i++ {
		g.Attach(ids[rng.Intn(i)], ids[i]) //nolint:errcheck
	}
	for e := 0; e < n/2; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.Correspond(ids[a], ids[b]) //nolint:errcheck
		}
	}
	return g, ids
}

// bruteForceMinCut enumerates all feasible bipartitions.
func bruteForceMinCut(pg *PartGraph, capacity int) (float64, bool) {
	n := len(pg.Nodes)
	best := 1e18
	found := false
	for mask := 0; mask < 1<<uint(n); mask++ {
		side := make([]bool, n)
		sa, sb := 0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				side[i] = true
				sb += pg.Sizes[i]
			} else {
				sa += pg.Sizes[i]
			}
		}
		if sa > capacity || sb > capacity {
			continue
		}
		if c := pg.cutOf(side); c < best {
			best = c
			found = true
		}
	}
	return best, found
}

// Property: OptimalSplit matches brute force exactly on small instances —
// the reported cut equals the brute-force minimum, and the returned
// partition genuinely achieves it (its recomputed cut matches and both
// sides respect capacity), on random graphs up to 14 nodes.
func TestOptimalMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g, ids := randomPartGraph(rng, n)
		pg := BuildPartGraph(g, ids)
		total := 0
		for _, s := range pg.Sizes {
			total += s
		}
		capacity := total*2/3 + 1
		want, feasible := bruteForceMinCut(pg, capacity)
		got, ok := OptimalSplit(pg, capacity)
		if ok != feasible {
			return false
		}
		if !ok {
			return true
		}
		if got.Cut > want+1e-9 || got.Cut < want-1e-9 {
			return false
		}
		// The partition must itself realize the minimal cut.
		if d := pg.cutOf(got.Side) - want; d > 1e-9 || d < -1e-9 {
			return false
		}
		a, b := pg.sideSizes(got.Side)
		return a <= capacity && b <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The branch-and-bound exact search must handle graphs of 20+ nodes well
// inside the test timeout — the pruning rules (partial cut against the
// incumbent, admissible per-node lower bound, anchored first node) are what
// make this tractable where plain 2^n enumeration is not.
func TestOptimalSplitTwentyPlusNodes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(4) // 20..23, all within the exact-search bound
		g, ids := randomPartGraph(rng, n)
		pg := BuildPartGraph(g, ids)
		total := 0
		for _, s := range pg.Sizes {
			total += s
		}
		capacity := total*3/5 + 160
		part, ok := OptimalSplit(pg, capacity)
		if !ok {
			t.Fatalf("seed %d: expected feasible split", seed)
		}
		a, b := pg.sideSizes(part.Side)
		if a > capacity || b > capacity {
			t.Fatalf("seed %d: capacity violated (%d/%d > %d)", seed, a, b, capacity)
		}
		if d := part.Cut - pg.cutOf(part.Side); d > 1e-9 || d < -1e-9 {
			t.Fatalf("seed %d: reported cut %v != recomputed %v", seed, part.Cut, pg.cutOf(part.Side))
		}
		gr, gok := GreedySplit(pg, capacity)
		if gok && part.Cut > gr.Cut+1e-9 {
			t.Fatalf("seed %d: optimal cut %v worse than greedy %v", seed, part.Cut, gr.Cut)
		}
	}
}

// Property: the optimal cut never exceeds the greedy cut, and both respect
// capacity, on arbitrary instances (including ones larger than the exact
// search bound).
func TestOptimalNeverWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30) // sometimes beyond maxExactNodes
		g, ids := randomPartGraph(rng, n)
		pg := BuildPartGraph(g, ids)
		total := 0
		for _, s := range pg.Sizes {
			total += s
		}
		capacity := total*3/5 + 160
		gr, gok := GreedySplit(pg, capacity)
		op, ook := OptimalSplit(pg, capacity)
		if gok != ook && gok { // optimal must succeed whenever greedy does
			return false
		}
		if !gok || !ook {
			return true
		}
		if op.Cut > gr.Cut+1e-9 {
			return false
		}
		for _, part := range []Partition{gr, op} {
			a, b := pg.sideSizes(part.Side)
			if a > capacity || b > capacity {
				return false
			}
			if d := part.Cut - pg.cutOf(part.Side); d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineImproves(t *testing.T) {
	// A partition where node 0's neighbors are all on the other side;
	// refine should move it over (or otherwise not increase the cut).
	g, ids := buildChain(t, 8, 50, 1)
	pg := BuildPartGraph(g, ids)
	side := []bool{true, false, false, false, false, false, false, false}
	start := Partition{Side: side, Cut: pg.cutOf(side)}
	better := refine(pg, start, 400)
	if better.Cut > start.Cut {
		t.Fatalf("refine made it worse: %v -> %v", start.Cut, better.Cut)
	}
	if better.Cut != 0 {
		t.Fatalf("refine should merge the chain onto one side: cut=%v", better.Cut)
	}
}
