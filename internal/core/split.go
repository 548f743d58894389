package core

import (
	"oodb/internal/model"
)

// The page-splitting problem (Section 2.1): partition the objects of an
// overflowing page (plus the incoming object) into two sets that each fit a
// page, minimizing the total traversal frequency of the structural arcs the
// partition breaks. This is graph partitioning, NP-complete in general; the
// paper evaluates a one-pass greedy heuristic (Linear_Split) against the
// exact minimum (NP_Split).

// PartGraph is the inheritance-dependency graph of a candidate split: the
// objects involved, their sizes, and weighted arcs between objects that are
// structurally related (configuration, version, correspondence, or
// inheritance), with weight equal to the traversal frequency of the
// relationship.
//
// A PartGraph retains its internal buffers across Build calls, so the split
// machinery runs allocation-free once warm: the cluster manager keeps one
// PartGraph in its per-placement scratch and rebuilds it in place at every
// overflow. Adjacency is in CSR form (one flat arc array plus per-node
// offsets) rather than per-node slices.
type PartGraph struct {
	Nodes []model.ObjectID
	Sizes []int
	Arcs  []Arc

	// CSR adjacency: arcs incident to node v are
	// adjList[adjStart[v]:adjStart[v+1]], in global arc order.
	adjStart []int32
	adjList  []adjArc

	// Build scratch: sorted id->index lookup (replaces the former
	// map[ObjectID]int) and raw weight triples merged by a stable two-pass
	// counting sort (replaces the former map[[2]int]float64).
	lookIDs []model.ObjectID
	lookIdx []int32
	trips   []trip
	tripTmp []trip
	counts  []int32

	// GreedySplit scratch: union-find, weight-ordered arcs, group buckets.
	parent    []int32
	gsize     []int
	arcsByW   []Arc
	groupBuf  []grp
	memberBuf []int32
	gstart    []int32
	cursor    []int32

	// OptimalSplit scratch: search order, incident weights, DFS state.
	order []int32
	deg   []float64
	posOf []int32
	side  []bool
}

// Arc is a weighted undirected arc between node indices A and B.
type Arc struct {
	A, B int
	W    float64
}

type adjArc struct {
	to int32
	w  float64
}

// trip is one raw (pair, weight) contribution before merging.
type trip struct {
	a, b int32
	w    float64
}

// grp is one union-find group during greedy packing.
type grp struct {
	start, count int32 // window into memberBuf
	size         int
}

// BuildPartGraph constructs the dependency graph over the given objects.
// Arc weights sum the traversal frequencies of every relationship connecting
// the pair, in both directions.
func BuildPartGraph(g *model.Graph, ids []model.ObjectID) *PartGraph {
	pg := &PartGraph{}
	pg.Build(g, ids)
	return pg
}

// Build (re)constructs the graph in place, reusing every internal buffer.
// The resulting Nodes, Sizes, Arcs, and adjacency are identical to a fresh
// BuildPartGraph: triples are accumulated in traversal order and merged with
// a stable sort, so floating-point weight sums are bit-identical to the old
// map-based accumulation.
func (pg *PartGraph) Build(g *model.Graph, ids []model.ObjectID) {
	n := len(ids)
	pg.Nodes = append(pg.Nodes[:0], ids...)
	pg.Sizes = pg.Sizes[:0]
	for _, id := range pg.Nodes {
		sz := 0
		if o := g.Object(id); o != nil {
			sz = o.Size
		}
		pg.Sizes = append(pg.Sizes, sz)
	}
	pg.buildLookup()

	// Collect raw pairwise contributions in deterministic traversal order.
	pg.trips = pg.trips[:0]
	for i, id := range pg.Nodes {
		o := g.Object(id)
		if o == nil {
			continue
		}
		for kind := model.RelKind(0); kind < model.NumRelKinds; kind++ {
			w := o.Freq[kind]
			if w <= 0 {
				continue
			}
			for k, cnt := 0, o.NeighborCount(kind); k < cnt; k++ {
				j, ok := pg.lookup(o.NeighborAt(kind, k))
				if !ok || int(j) == i {
					continue
				}
				a, b := int32(i), j
				if b < a {
					a, b = b, a
				}
				pg.trips = append(pg.trips, trip{a: a, b: b, w: w})
			}
		}
	}
	pg.sortTrips(n)

	// Merge runs of equal pairs into arcs. Within a pair, contributions are
	// summed in their original traversal order (the sort is stable), keeping
	// weight sums bit-identical across Build implementations.
	pg.Arcs = pg.Arcs[:0]
	for t := 0; t < len(pg.trips); {
		a, b := pg.trips[t].a, pg.trips[t].b
		w := 0.0
		for t < len(pg.trips) && pg.trips[t].a == a && pg.trips[t].b == b {
			w += pg.trips[t].w
			t++
		}
		pg.Arcs = append(pg.Arcs, Arc{A: int(a), B: int(b), W: w})
	}

	// CSR adjacency: count degrees, prefix-sum, fill in arc order (the same
	// per-node ordering the old per-node append loops produced).
	pg.adjStart = growInt32(pg.adjStart, n+1)
	for i := range pg.adjStart {
		pg.adjStart[i] = 0
	}
	for _, a := range pg.Arcs {
		pg.adjStart[a.A+1]++
		pg.adjStart[a.B+1]++
	}
	for i := 1; i <= n; i++ {
		pg.adjStart[i] += pg.adjStart[i-1]
	}
	pg.adjList = growAdj(pg.adjList, int(pg.adjStart[n]))
	pg.cursor = growInt32(pg.cursor, n)
	for i := 0; i < n; i++ {
		pg.cursor[i] = pg.adjStart[i]
	}
	for _, a := range pg.Arcs {
		pg.adjList[pg.cursor[a.A]] = adjArc{to: int32(a.B), w: a.W}
		pg.cursor[a.A]++
		pg.adjList[pg.cursor[a.B]] = adjArc{to: int32(a.A), w: a.W}
		pg.cursor[a.B]++
	}
}

// adjOf returns the arcs incident to node v.
func (pg *PartGraph) adjOf(v int) []adjArc {
	return pg.adjList[pg.adjStart[v]:pg.adjStart[v+1]]
}

// buildLookup sorts (id, index) pairs by id for binary-search node lookup.
// Insertion sort: the node set is one page's worth of objects.
func (pg *PartGraph) buildLookup() {
	pg.lookIDs = append(pg.lookIDs[:0], pg.Nodes...)
	pg.lookIdx = pg.lookIdx[:0]
	for i := range pg.Nodes {
		pg.lookIdx = append(pg.lookIdx, int32(i))
	}
	for i := 1; i < len(pg.lookIDs); i++ {
		id, ix := pg.lookIDs[i], pg.lookIdx[i]
		j := i
		for j > 0 && pg.lookIDs[j-1] > id {
			pg.lookIDs[j], pg.lookIdx[j] = pg.lookIDs[j-1], pg.lookIdx[j-1]
			j--
		}
		pg.lookIDs[j], pg.lookIdx[j] = id, ix
	}
}

// lookup returns the node index of id. Among duplicate ids (which a sane
// caller never passes) the highest index wins, matching the old map
// last-write-wins behavior.
func (pg *PartGraph) lookup(id model.ObjectID) (int32, bool) {
	lo, hi := 0, len(pg.lookIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if pg.lookIDs[mid] <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is one past the last element <= id.
	if lo == 0 || pg.lookIDs[lo-1] != id {
		return 0, false
	}
	return pg.lookIdx[lo-1], true
}

// sortTrips stably sorts the raw triples by (a, b) with a two-pass counting
// sort (radix over node indices) — no comparator, no allocation once warm.
func (pg *PartGraph) sortTrips(n int) {
	t := len(pg.trips)
	if t < 2 {
		return
	}
	pg.tripTmp = growTrips(pg.tripTmp, t)
	pg.counts = growInt32(pg.counts, n+1)
	// Pass 1: stable counting sort by b into tripTmp.
	countingPass(pg.trips, pg.tripTmp, pg.counts[:n+1], func(tr trip) int32 { return tr.b })
	// Pass 2: stable counting sort by a back into trips.
	countingPass(pg.tripTmp, pg.trips, pg.counts[:n+1], func(tr trip) int32 { return tr.a })
}

func countingPass(src, dst []trip, counts []int32, key func(trip) int32) {
	for i := range counts {
		counts[i] = 0
	}
	for _, tr := range src {
		counts[key(tr)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for _, tr := range src {
		k := key(tr)
		dst[counts[k]] = tr
		counts[k]++
	}
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growTrips(s []trip, n int) []trip {
	if cap(s) < n {
		return make([]trip, n)
	}
	return s[:n]
}

func growAdj(s []adjArc, n int) []adjArc {
	if cap(s) < n {
		return make([]adjArc, n)
	}
	return s[:n]
}

// TotalWeight returns the sum of all arc weights.
func (pg *PartGraph) TotalWeight() float64 {
	t := 0.0
	for _, a := range pg.Arcs {
		t += a.W
	}
	return t
}

// Partition is a two-way split of a PartGraph. Side false stays on the
// original page, side true moves to the new page.
type Partition struct {
	Side []bool
	Cut  float64
}

// SideObjects returns the object IDs on the given side.
func (p Partition) SideObjects(pg *PartGraph, side bool) []model.ObjectID {
	var out []model.ObjectID
	for i, s := range p.Side {
		if s == side {
			out = append(out, pg.Nodes[i])
		}
	}
	return out
}

func (pg *PartGraph) cutOf(side []bool) float64 {
	c := 0.0
	for _, a := range pg.Arcs {
		if side[a.A] != side[a.B] {
			c += a.W
		}
	}
	return c
}

func (pg *PartGraph) sideSizes(side []bool) (a, b int) {
	for i, s := range side {
		if s {
			b += pg.Sizes[i]
		} else {
			a += pg.Sizes[i]
		}
	}
	return a, b
}

// GreedySplit is the paper's Linear_Split: arcs are scanned once in
// descending weight order, merging node groups whose combined size still
// fits a page; the resulting groups are then packed onto the two sides by
// first-fit decreasing. It runs in O(E log E) (the weight ordering
// dominates; the scan itself is linear as in [CHAN87a]) and does not try to
// be optimal. ok is false when no feasible packing exists.
//
// Only the returned Side slice is allocated; all working state lives in the
// PartGraph's reusable scratch.
func GreedySplit(pg *PartGraph, capacity int) (Partition, bool) {
	n := len(pg.Nodes)
	if n == 0 {
		return Partition{}, false
	}
	// Union-find with group sizes.
	pg.parent = growInt32(pg.parent, n)
	if cap(pg.gsize) < n {
		pg.gsize = make([]int, n)
	}
	pg.gsize = pg.gsize[:n]
	parent, gsize := pg.parent, pg.gsize
	for i := 0; i < n; i++ {
		parent[i] = int32(i)
		gsize[i] = pg.Sizes[i]
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Stable sort arcs by descending weight (insertion sort: a page's arc
	// set is small, and stability fixes the merge order deterministically).
	arcs := append(pg.arcsByW[:0], pg.Arcs...)
	pg.arcsByW = arcs
	for i := 1; i < len(arcs); i++ {
		a := arcs[i]
		j := i
		for j > 0 && arcs[j-1].W < a.W {
			arcs[j] = arcs[j-1]
			j--
		}
		arcs[j] = a
	}
	for _, a := range arcs {
		ra, rb := find(int32(a.A)), find(int32(a.B))
		if ra == rb {
			continue
		}
		if gsize[ra]+gsize[rb] <= capacity {
			parent[rb] = ra
			gsize[ra] += gsize[rb]
		}
	}
	// Bucket members by root without a map: count per root, prefix-sum,
	// fill in ascending node order (so each group's members stay sorted and
	// members[0] is the group's smallest node, as before).
	pg.counts = growInt32(pg.counts, n+1)
	cnt := pg.counts[:n]
	for i := range cnt {
		cnt[i] = 0
	}
	for i := int32(0); i < int32(n); i++ {
		cnt[find(i)]++
	}
	pg.gstart = growInt32(pg.gstart, n)
	pg.cursor = growInt32(pg.cursor, n)
	pg.memberBuf = growInt32(pg.memberBuf, n)
	pos := int32(0)
	for r := 0; r < n; r++ {
		pg.gstart[r] = pos
		pg.cursor[r] = pos
		pos += cnt[r]
	}
	for i := int32(0); i < int32(n); i++ {
		r := find(i)
		pg.memberBuf[pg.cursor[r]] = i
		pg.cursor[r]++
	}
	gs := pg.groupBuf[:0]
	for r := 0; r < n; r++ {
		if cnt[r] == 0 {
			continue
		}
		gs = append(gs, grp{start: pg.gstart[r], count: cnt[r], size: gsize[r]})
	}
	pg.groupBuf = gs
	// Order groups by (size desc, smallest member asc) — a total order, so
	// the result is identical to the old sort over map-collected groups.
	for i := 1; i < len(gs); i++ {
		g := gs[i]
		j := i
		for j > 0 && groupLess(pg, g, gs[j-1]) {
			gs[j] = gs[j-1]
			j--
		}
		gs[j] = g
	}
	// First-fit decreasing into two bins.
	side := make([]bool, n)
	usedA, usedB := 0, 0
	for _, g := range gs {
		members := pg.memberBuf[g.start : g.start+g.count]
		switch {
		case usedA+g.size <= capacity:
			usedA += g.size
		case usedB+g.size <= capacity:
			usedB += g.size
			for _, m := range members {
				side[m] = true
			}
		default:
			// Group-level packing failed; fall back to splitting this group
			// member by member.
			for _, m := range members {
				switch {
				case usedA+pg.Sizes[m] <= capacity:
					usedA += pg.Sizes[m]
				case usedB+pg.Sizes[m] <= capacity:
					usedB += pg.Sizes[m]
					side[m] = true
				default:
					return Partition{}, false
				}
			}
		}
	}
	if usedB == 0 && usedA > capacity {
		return Partition{}, false
	}
	return Partition{Side: side, Cut: pg.cutOf(side)}, true
}

// groupLess orders groups by size descending, breaking ties by the smallest
// member node ascending.
func groupLess(pg *PartGraph, a, b grp) bool {
	if a.size != b.size {
		return a.size > b.size
	}
	return pg.memberBuf[a.start] < pg.memberBuf[b.start]
}

// maxExactNodes bounds the branch-and-bound search; pages hold few objects,
// so this is rarely reached. Beyond it, OptimalSplit refines the greedy
// solution with local moves instead of exhaustive search.
const maxExactNodes = 24

// OptimalSplit is the paper's NP_Split: the minimum-cut feasible partition.
// For up to maxExactNodes nodes it is exact — a branch-and-bound search
// seeded with the greedy solution (so it never does worse than GreedySplit),
// pruned by an admissible lower bound on the remaining cut (each unassigned
// node must eventually pay its cheaper side's arcs to already-assigned
// nodes) and by a remaining-size feasibility bound. For larger graphs it
// falls back to greedy plus hill-climbing node moves and swaps.
// ok is false when no feasible partition exists.
func OptimalSplit(pg *PartGraph, capacity int) (Partition, bool) {
	n := len(pg.Nodes)
	greedy, gok := GreedySplit(pg, capacity)
	if n > maxExactNodes {
		if !gok {
			return Partition{}, false
		}
		return refine(pg, greedy, capacity), true
	}
	// Remaining-size feasibility: if the node total cannot be covered by
	// two pages, no assignment order will find a feasible leaf.
	total := 0
	for _, s := range pg.Sizes {
		total += s
	}
	if total > 2*capacity {
		return Partition{}, false
	}
	best := Partition{Cut: 1e18}
	haveBest := false
	if gok {
		best = greedy
		haveBest = true
	}
	// Order nodes by total incident weight, heaviest first, for earlier
	// pruning (stable, matching the previous sort.SliceStable order).
	pg.order = growInt32(pg.order, n)
	pg.posOf = growInt32(pg.posOf, n)
	if cap(pg.deg) < n {
		pg.deg = make([]float64, n)
	}
	pg.deg = pg.deg[:n]
	order, deg := pg.order, pg.deg
	for i := 0; i < n; i++ {
		order[i] = int32(i)
		deg[i] = 0
	}
	for _, a := range pg.Arcs {
		deg[a.A] += a.W
		deg[a.B] += a.W
	}
	for i := 1; i < n; i++ {
		v := order[i]
		j := i
		for j > 0 && deg[order[j-1]] < deg[v] {
			order[j] = order[j-1]
			j--
		}
		order[j] = v
	}
	for p := 0; p < n; p++ {
		pg.posOf[order[p]] = int32(p)
	}

	if cap(pg.side) < n {
		pg.side = make([]bool, n)
	}
	pg.side = pg.side[:n]
	side, posOf := pg.side, pg.posOf

	// lowerBound sums, over the nodes not yet assigned at position pos, the
	// cheaper of each node's arc weights to the two assigned sides. Every
	// unassigned node must land on one side and pay at least that much, and
	// arcs between two unassigned nodes are ignored, so the bound is
	// admissible: pruning on cut+lb >= best never discards a strictly
	// better leaf, and the recorded partition is unchanged.
	lowerBound := func(pos int) float64 {
		lb := 0.0
		for p := pos; p < n; p++ {
			v := order[p]
			wa, wb := 0.0, 0.0
			for _, e := range pg.adjOf(int(v)) {
				if int(posOf[e.to]) < pos {
					if side[e.to] {
						wb += e.w
					} else {
						wa += e.w
					}
				}
			}
			if wa < wb {
				lb += wa
			} else {
				lb += wb
			}
		}
		return lb
	}

	var dfs func(pos int, usedA, usedB int, cut float64)
	dfs = func(pos int, usedA, usedB int, cut float64) {
		if cut >= best.Cut {
			return
		}
		if pos == n {
			if usedA <= capacity && usedB <= capacity {
				best = Partition{Side: append([]bool(nil), side...), Cut: cut}
				haveBest = true
			}
			return
		}
		if cut+lowerBound(pos) >= best.Cut {
			return
		}
		node := order[pos]
		for _, s := range [2]bool{false, true} {
			if pos == 0 && s {
				break // symmetry: first node stays on side A
			}
			sz := pg.Sizes[node]
			ua, ub := usedA, usedB
			if s {
				ub += sz
			} else {
				ua += sz
			}
			if ua > capacity || ub > capacity {
				continue
			}
			add := 0.0
			for _, e := range pg.adjOf(int(node)) {
				if int(posOf[e.to]) < pos && side[e.to] != s {
					add += e.w
				}
			}
			side[node] = s
			dfs(pos+1, ua, ub, cut+add)
		}
	}
	dfs(0, 0, 0, 0)
	if !haveBest {
		return Partition{}, false
	}
	return best, true
}

// refine hill-climbs a feasible partition: single-node moves and pairwise
// swaps that reduce the cut while staying feasible, until a fixed point
// (bounded rounds).
func refine(pg *PartGraph, p Partition, capacity int) Partition {
	side := append([]bool(nil), p.Side...)
	usedA, usedB := pg.sideSizes(side)
	gain := func(i int) float64 {
		// Cut change if node i switches sides: arcs to the same side become
		// cut (+w), arcs across become internal (-w).
		d := 0.0
		for _, e := range pg.adjOf(i) {
			if side[e.to] == side[i] {
				d += e.w
			} else {
				d -= e.w
			}
		}
		return d // negative d means the move reduces the cut
	}
	for round := 0; round < 16; round++ {
		improved := false
		for i := range side {
			d := gain(i)
			if d >= 0 {
				continue
			}
			sz := pg.Sizes[i]
			if side[i] { // B -> A
				if usedA+sz > capacity {
					continue
				}
				usedA += sz
				usedB -= sz
			} else { // A -> B
				if usedB+sz > capacity {
					continue
				}
				usedB += sz
				usedA -= sz
			}
			side[i] = !side[i]
			improved = true
		}
		if !improved {
			break
		}
	}
	return Partition{Side: side, Cut: pg.cutOf(side)}
}
