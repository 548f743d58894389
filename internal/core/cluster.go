package core

import (
	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// ClusterStats aggregates clustering activity across a run.
type ClusterStats struct {
	Placements      int
	Reclusterings   int // recluster invocations
	Moves           int // objects actually relocated
	CandidateIOs    int // physical reads spent inspecting candidate pages
	CandidatesSeen  int
	Splits          int
	SplitInfeasible int
	FrontierFalls   int // placements that fell back to the frontier

	// Cut-cost bookkeeping for Figure 5.10: under NP_Split every split
	// attempt computes both partitions, so the policies are compared on
	// identical inputs. Linear_Split runs only the greedy one and leaves
	// these zero.
	GreedyCutTotal  float64
	OptimalCutTotal float64
	SplitsCompared  int

	// Dynamic-clustering activity (the dstc/dro strategies).
	Consolidations int // DSTC observation windows folded into temperatures
	DynMoves       int // objects relocated by triggered reorganization/sweeps
	Evacuations    int // DRO flagrantly-bad pages evacuated
}

// Placement describes the outcome of a placement or reclustering action so
// the engine can charge I/Os, mark pages dirty, and log.
//
// The IOs and DirtyPages slices are backed by the clusterer's reusable
// scratch buffers: they are valid until the next PlaceNew/Recluster call on
// the same clusterer. Callers that need them longer must copy.
type Placement struct {
	// IOs are the physical I/Os the action triggered, in order.
	IOs []PhysIO
	// Page is the object's final page.
	Page storage.PageID
	// DirtyPages must be marked dirty (and logged) by the caller: the target
	// page, plus both halves of a split, plus the source page of a move.
	DirtyPages []storage.PageID
	// Split reports that a page split occurred; NewPage is its new page.
	Split   bool
	NewPage storage.PageID
	// Moved reports that an existing object changed pages (reclustering).
	Moved bool
}

// Clusterer is the dynamic clustering algorithm. It owns placement policy
// only; mechanics stay in storage.Manager and residency in buffer.Pool.
type Clusterer struct {
	placer

	Policy ClusterPolicy
	Split  SplitPolicy
	Hints  HintPolicy
	Hint   Hint

	// SplitOverhead is the constant cost added to a split's cut cost when
	// deciding split-vs-next-candidate, reflecting the extra flush I/O, log
	// record, CPU time, and buffer contention the paper charges to splits.
	SplitOverhead float64

	// MaxCandidates bounds the candidate pages examined per placement.
	MaxCandidates int

	// NoSiblingCandidates disables the sibling-page tier of the candidate
	// ranking and the sibling term of the affinity function (ablation knob:
	// placement then considers direct structural neighbors only).
	NoSiblingCandidates bool

	spill storage.PageID // fallback fill page for non-composite loners
	scr   clusterScratch
}

// clusterScratch holds the per-placement working buffers the hot path
// reuses beyond placer's I/O and dirty-page accumulators: candidate and
// sibling page lists and the partition graph the split machinery rebuilds in
// place. One placement at a time runs per clusterer, so a single scratch
// suffices.
type clusterScratch struct {
	cand  []storage.PageID // candidate pages, in ranked order
	local []storage.PageID // per-tier distinct-page gathering buffer
	ids   []model.ObjectID // split candidate object set
	part  PartGraph        // split partition graph, rebuilt in place
}

// keepIOs records the (possibly regrown) I/O buffer for reuse and hands it
// out as a Placement's IOs.
func (c *Clusterer) keepIOs(ios []PhysIO) []PhysIO {
	c.ios = ios
	return ios
}

// dirty1 and dirty2 fill the reusable dirty-page list.
func (c *Clusterer) dirty1(a storage.PageID) []storage.PageID {
	c.dirty = append(c.dirty[:0], a)
	return c.dirty
}

func (c *Clusterer) dirty2(a, b storage.PageID) []storage.PageID {
	c.dirty = append(c.dirty[:0], a, b)
	return c.dirty
}

// NewClusterer returns a clusterer with the experiment defaults.
func NewClusterer(g *model.Graph, st storage.Backend, pool buffer.Frames) *Clusterer {
	return &Clusterer{
		placer:        newPlacer(g, st, pool),
		Policy:        PolicyNoCluster,
		Split:         NoSplit,
		SplitOverhead: 1.0,
		MaxCandidates: 12,
	}
}

// CloneOnto implements StrategyCloner: the policy knobs, including a
// policy the adaptive extension switched to, and the spill page.
func (c *Clusterer) CloneOnto(g *model.Graph, st storage.Backend, pool buffer.Frames) ClusterStrategy {
	n := *c
	n.placer = c.placer.cloneOnto(g, st, pool)
	n.scr = clusterScratch{}
	return &n
}

// SetPolicy implements PolicyTuner: the adaptive extension switches the
// candidate-pool policy at run time.
func (c *Clusterer) SetPolicy(p ClusterPolicy) { c.Policy = p }

// CurrentPolicy implements PolicyTuner.
func (c *Clusterer) CurrentPolicy() ClusterPolicy { return c.Policy }

func (c *Clusterer) ioBudget() int {
	switch c.Policy.Mode {
	case ClusterWithinBuffer:
		return 0
	case ClusterIOLimit:
		return c.Policy.IOLimit
	case ClusterNoLimit:
		return 1 << 30
	}
	return 0
}

// candidatePages ranks the pages of o's structural neighbors by the
// traversal frequency of the connecting relationship (user hint first when
// honored). The returned slice is scratch-backed, valid until the next
// placement. Deduplication is a linear scan over the (MaxCandidates-bounded)
// candidate list — the old seen-map without the per-call allocation.
func (c *Clusterer) candidatePages(o *model.Object) []storage.PageID {
	out := c.scr.cand[:0]
	own := c.Store.PageOf(o.ID)
	var kindBuf [model.NumRelKinds]model.RelKind
	for _, kind := range rankKinds(&kindBuf, o, c.Hints, c.Hint) {
		if o.FreqOf(kind) <= 0 && !(c.Hints == UserHints && c.Hint.Active && c.Hint.Kind == kind) {
			continue
		}
		for i, cnt := 0, o.NeighborCount(kind); i < cnt; i++ {
			pg := c.Store.PageOf(o.NeighborAt(kind, i))
			if pg == storage.NilPage || pg == own {
				continue
			}
			if containsPage(out, pg) {
				continue
			}
			out = append(out, pg)
			if len(out) >= c.MaxCandidates {
				c.scr.cand = out
				return out
			}
		}
		if kind == model.ConfigUp && !c.NoSiblingCandidates {
			// Once the composite's own page is in the list, the pages of the
			// composite's other components are the next best candidates:
			// siblings are co-retrieved with the composite. As before, the
			// sibling tier enumerates at most MaxCandidates distinct sibling
			// pages (tracked in local), whether or not an earlier tier
			// already listed them.
			local := c.scr.local[:0]
			for _, comp := range o.Composites() {
				co := c.Graph.Object(comp)
				if co == nil {
					continue
				}
				for _, sib := range co.Components() {
					if sib == o.ID {
						continue
					}
					pg := c.Store.PageOf(sib)
					if pg == storage.NilPage || pg == own {
						continue
					}
					if containsPage(local, pg) {
						continue
					}
					local = append(local, pg)
					if !containsPage(out, pg) {
						out = append(out, pg)
						if len(out) >= c.MaxCandidates {
							c.scr.local = local
							c.scr.cand = out
							return out
						}
					}
					if len(local) >= c.MaxCandidates {
						break
					}
				}
				if len(local) >= c.MaxCandidates {
					break
				}
			}
			c.scr.local = local
		}
	}
	c.scr.cand = out
	return out
}

// siblingAffinityWeight discounts sibling co-location relative to direct
// composite co-location: siblings are fetched together during composite
// expansion but are not navigated to directly.
const siblingAffinityWeight = 0.5

// Affinity is the co-location benefit of having o on page pg: the summed
// traversal frequency of o's relationships whose other end lives on pg.
func (c *Clusterer) Affinity(o *model.Object, pg storage.PageID) float64 {
	if pg == storage.NilPage {
		return 0
	}
	a := 0.0
	for kind := model.RelKind(0); kind < model.NumRelKinds; kind++ {
		w := o.FreqOf(kind)
		if c.Hints == UserHints && c.Hint.Active && c.Hint.Kind == kind {
			w *= 2 // hinted traversals dominate the application's access mix
		}
		if w <= 0 {
			continue
		}
		for i, cnt := 0, o.NeighborCount(kind); i < cnt; i++ {
			if c.Store.PageOf(o.NeighborAt(kind, i)) == pg {
				a += w
			}
		}
	}
	// Sibling co-location: components retrieved together with o when their
	// shared composite is expanded.
	sw := o.FreqOf(model.ConfigUp) * siblingAffinityWeight
	if c.NoSiblingCandidates {
		sw = 0
	}
	if sw > 0 {
		for _, comp := range o.Composites() {
			co := c.Graph.Object(comp)
			if co == nil {
				continue
			}
			for _, sib := range co.Components() {
				if sib != o.ID && c.Store.PageOf(sib) == pg {
					a += sw
				}
			}
		}
	}
	return a
}

// inspect makes candidate page pg available for examination under the
// candidate-pool policy, spending budget for non-resident pages. Implied
// I/Os append to ios; the updated slice is returned along with whether the
// page may be used.
func (c *Clusterer) inspect(pg storage.PageID, budget *int, ios []PhysIO) ([]PhysIO, bool, error) {
	// Examining a resident page is free; the boost that finds it resident
	// also hints the buffer manager to keep it around for the rest of the
	// clustering phase.
	if c.Pool.Boost(pg) {
		return ios, true, nil
	}
	if *budget <= 0 {
		return ios, false, nil
	}
	*budget--
	c.stats.CandidateIOs++
	res, err := c.Pool.Access(pg)
	if err != nil {
		return ios, false, err
	}
	c.Pool.Boost(pg)
	return AppendExpandAccess(ios, res, pg), true, nil
}

// PlaceNew chooses and performs the initial placement of a newly created
// object (which must be unplaced). Under No_Cluster it appends to the
// sequential fill page.
func (c *Clusterer) PlaceNew(o *model.Object) (Placement, error) {
	if err := c.begin(o); err != nil {
		return Placement{}, err
	}
	ios := c.ios[:0]
	if c.Policy.Mode == NoCluster {
		return c.placeFill(o, ios, c.dirty[:0], &c.frontier)
	}

	budget := c.ioBudget()
	cands := c.candidatePages(o)
	c.stats.CandidatesSeen += len(cands)
	for i, pg := range cands {
		var usable bool
		var err error
		ios, usable, err = c.inspect(pg, &budget, ios)
		if err != nil {
			return Placement{IOs: c.keepIOs(ios)}, err
		}
		if !usable {
			continue
		}
		if c.Store.Fits(o.Size, pg) {
			if err := c.Store.Place(o.ID, pg); err != nil {
				return Placement{IOs: c.keepIOs(ios)}, err
			}
			return Placement{IOs: c.keepIOs(ios), Page: pg, DirtyPages: c.dirty1(pg)}, nil
		}
		// Preferred candidate is full: split it, or recurse to the next best
		// candidate (Section 2.1 (b)).
		if c.Split != NoSplit {
			nextAffinity := 0.0
			if i+1 < len(cands) {
				nextAffinity = c.Affinity(o, cands[i+1])
			}
			pl, did, err := c.trySplit(o, pg, nextAffinity, ios)
			if err != nil {
				return Placement{IOs: c.keepIOs(ios)}, err
			}
			if did {
				return pl, nil
			}
		}
	}
	c.stats.FrontierFalls++
	return c.placeFallback(o, ios)
}

// placeFallback handles a clustered placement that found no usable
// candidate. Objects that head configurations (nonzero config-down
// frequency) seed a fresh page so their components can cluster onto it —
// sharing the sequential frontier would let unrelated interleaved creations
// consume exactly the space their future components need. Loner objects
// pack onto a separate spill page.
//
// Within_Buffer clustering does not seed: its candidates are usable only
// while resident, so reserved space is usually wasted, and the paper
// characterizes it as at best comparable to — never paying more space than
// — sequential placement.
func (c *Clusterer) placeFallback(o *model.Object, ios []PhysIO) (Placement, error) {
	if c.Policy.Mode != ClusterWithinBuffer && o.FreqOf(model.ConfigDown) > 0 {
		seed := storage.NilPage // a fill page of its own, so always fresh
		return c.placeFill(o, ios, c.dirty[:0], &seed)
	}
	return c.placeFill(o, ios, c.dirty[:0], &c.spill)
}

// trySplit evaluates splitting full page pg to admit o, against the
// alternative of placing o on the next best candidate (whose affinity is
// given). It performs the split when favorable.
//
// Expected access cost of a split = broken-arc cost + overhead; cost of
// settling for the next candidate = the affinity to this page we forgo.
// Arc weights are positive, so the cut is never negative: when the overhead
// alone reaches the settle cost no partition can win, and Linear_Split
// declines without building the partition graph. NP_Split still builds it
// and runs both partitioners on every attempt, because Figure 5.10 reads the
// cut totals of every feasible comparison, winnable or not.
func (c *Clusterer) trySplit(o *model.Object, pg storage.PageID, nextAffinity float64, ios []PhysIO) (Placement, bool, error) {
	settleCost := c.Affinity(o, pg) - nextAffinity
	cap := c.Store.PageSize()
	var part Partition
	var ok bool
	switch c.Split {
	case LinearSplit:
		if c.splitCannotWin(settleCost) {
			return Placement{}, false, nil
		}
		part, ok = GreedySplit(c.partGraph(o, pg), cap)
	case NPSplit:
		graph := c.partGraph(o, pg)
		greedy, gok := GreedySplit(graph, cap)
		part, ok = OptimalSplit(graph, cap)
		if gok && ok {
			c.stats.GreedyCutTotal += greedy.Cut
			c.stats.OptimalCutTotal += part.Cut
			c.stats.SplitsCompared++
		}
	default:
		return Placement{}, false, nil
	}
	if !ok {
		c.stats.SplitInfeasible++
		return Placement{}, false, nil
	}
	if part.Cut+c.SplitOverhead >= settleCost {
		return Placement{}, false, nil
	}

	// Perform the split: side B moves to a new page.
	newPg, ios, err := c.freshPage(ios)
	if err != nil {
		return Placement{}, false, err
	}
	// Evacuate side B to the new page first, then place the incoming object
	// on its side — placing first could transiently overflow the old page.
	for i, id := range c.scr.part.Nodes {
		if id == o.ID || !part.Side[i] {
			continue
		}
		if err := c.Store.Move(id, newPg); err != nil {
			return Placement{}, false, err
		}
	}
	finalPage := pg
	if part.Side[0] { // o is node 0
		finalPage = newPg
	}
	if err := c.Store.Place(o.ID, finalPage); err != nil {
		return Placement{}, false, err
	}
	c.stats.Splits++
	// The paper charges splits one extra I/O to flush the newly allocated
	// page, plus an extra log record (added by the engine via DirtyPages).
	ios = append(ios, WriteOf(newPg))
	return Placement{
		IOs:        c.keepIOs(ios),
		Page:       finalPage,
		DirtyPages: c.dirty2(pg, newPg),
		Split:      true,
		NewPage:    newPg,
	}, true, nil
}

// splitCannotWin reports that no partition can beat settling: a split costs
// its cut plus SplitOverhead, and the cut is never negative.
func (c *Clusterer) splitCannotWin(settleCost float64) bool {
	return c.SplitOverhead >= settleCost
}

// partGraph rebuilds the scratch partition graph over o and the objects on
// pg; o is node 0.
func (c *Clusterer) partGraph(o *model.Object, pg storage.PageID) *PartGraph {
	ids := append(c.scr.ids[:0], o.ID)
	ids = append(ids, c.Store.ObjectsOn(pg)...)
	c.scr.ids = ids
	c.scr.part.Build(c.Graph, ids)
	return &c.scr.part
}

// Recluster re-evaluates the placement of an existing object after its
// structural relationships changed — the run-time reclustering algorithm.
// The object moves to the candidate page with the highest affinity when that
// beats its current page and the page has room, under the same candidate
// pool I/O budget as placement.
func (c *Clusterer) Recluster(o *model.Object) (Placement, error) {
	cur := c.Store.PageOf(o.ID)
	if cur == storage.NilPage {
		return Placement{}, storage.ErrNotPlaced
	}
	if c.Policy.Mode == NoCluster {
		return Placement{Page: cur}, nil
	}
	c.stats.Reclusterings++
	ios := c.ios[:0]
	budget := c.ioBudget()
	curAff := c.Affinity(o, cur)
	bestPg := storage.NilPage
	bestAff := curAff
	for _, pg := range c.candidatePages(o) {
		if pg == cur {
			continue
		}
		var usable bool
		var err error
		ios, usable, err = c.inspect(pg, &budget, ios)
		if err != nil {
			return Placement{IOs: c.keepIOs(ios), Page: cur}, err
		}
		if !usable || !c.Store.Fits(o.Size, pg) {
			continue
		}
		if a := c.Affinity(o, pg); a > bestAff {
			bestAff, bestPg = a, pg
		}
	}
	if bestPg == storage.NilPage {
		return Placement{IOs: c.keepIOs(ios), Page: cur}, nil
	}
	// Moving rewrites both pages; the current page must be resident to take
	// the object off it.
	res, err := c.Pool.Access(cur)
	if err != nil {
		return Placement{IOs: c.keepIOs(ios), Page: cur}, err
	}
	ios = AppendExpandAccess(ios, res, cur)
	if err := c.Store.Move(o.ID, bestPg); err != nil {
		return Placement{IOs: c.keepIOs(ios), Page: cur}, err
	}
	c.countMove()
	return Placement{
		IOs:        c.keepIOs(ios),
		Page:       bestPg,
		DirtyPages: c.dirty2(cur, bestPg),
		Moved:      true,
	}, nil
}
