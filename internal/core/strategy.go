package core

import (
	"fmt"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/registry"
	"oodb/internal/storage"
)

// ClusterStrategy is the clustering seam: the engine places and re-places
// objects through this interface only, so alternative placement algorithms
// plug in without touching the execution layer. The affinity-driven
// Clusterer in this package is the reference implementation; DSTC and DRO
// are the dynamic contenders. A strategy's name lives in the registry that
// builds it, not on the strategy.
type ClusterStrategy interface {
	// PlaceNew chooses and performs the initial placement of a newly
	// created, unplaced object.
	PlaceNew(o *model.Object) (Placement, error)
	// Recluster re-evaluates the placement of an existing object after its
	// structural relationships changed.
	Recluster(o *model.Object) (Placement, error)
	// Stats returns a copy of the clustering statistics.
	Stats() ClusterStats
	// ResetStats zeroes the statistics.
	ResetStats()
}

// PolicyTuner is the optional interface a ClusterStrategy implements when
// its candidate-pool policy can be switched at run time — the hook the
// adaptive-clustering extension uses. Strategies without a tunable policy
// simply do not implement it.
type PolicyTuner interface {
	// SetPolicy switches the candidate-pool policy.
	SetPolicy(p ClusterPolicy)
	// CurrentPolicy returns the policy currently in force.
	CurrentPolicy() ClusterPolicy
}

// AccessObserver is the optional interface a ClusterStrategy implements to
// receive the engine's access-pattern feed — the hook dynamic clustering
// policies (DSTC, DRO) build their statistics on. The engine discovers it
// by capability, like PolicyTuner; strategies that place statically simply
// do not implement it.
//
// NoteAccess is called on the read path, potentially from concurrent
// sessions holding only the shared guard: implementations must be race-free
// (atomic counters) and must not touch the buffer pool or storage — reads
// stay physically invisible. NoteRemoved is called on the write path under
// the exclusive guard, before the object leaves the store (so PageOf still
// resolves).
type AccessObserver interface {
	// NoteAccess records one logical read of id.
	NoteAccess(id model.ObjectID)
	// NoteRemoved reports that id is about to be removed from the store.
	NoteRemoved(id model.ObjectID)
}

// StrategyCloner is the optional interface a ClusterStrategy implements
// when the state it carries out of database construction can be copied
// onto a clone of the layers below it. CloneOnto returns an independent
// strategy over the given layers in the same state, statistics zeroed.
// Strategies that cannot be copied do not implement it, and their worlds
// are built afresh for every run.
type StrategyCloner interface {
	CloneOnto(g *model.Graph, st storage.Backend, pool buffer.Frames) ClusterStrategy
}

var (
	_ ClusterStrategy = (*Clusterer)(nil)
	_ PolicyTuner     = (*Clusterer)(nil)
	_ StrategyCloner  = (*Clusterer)(nil)
	_ StrategyCloner  = noCluster{}
	_ StrategyCloner  = (*DSTCClusterer)(nil)
	_ StrategyCloner  = (*DROClusterer)(nil)
)

// ClusterSeam carries the construction context a clustering strategy may
// need: the layers below it (graph, storage backend, buffer pool) and the
// Table 4.1 policy knobs. Strategies ignore the knobs they have no use for.
type ClusterSeam struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	Policy ClusterPolicy
	Split  SplitPolicy
	Hints  HintPolicy
	Hint   Hint

	// PageSize sizes the inherited-attribute cost model.
	PageSize int
	// NoSiblingCandidates is the candidate-ranking ablation knob.
	NoSiblingCandidates bool
}

// ClusterStrategyFactory builds a clustering strategy from its seam.
type ClusterStrategyFactory func(ClusterSeam) ClusterStrategy

var strategies = registry.New[ClusterStrategyFactory]("core", "RegisterClusterStrategy", "cluster strategy")

// RegisterClusterStrategy adds a strategy factory under name (and any
// aliases), looked up case- and separator-insensitively. Registering a name
// twice panics.
func RegisterClusterStrategy(name string, f ClusterStrategyFactory, aliases ...string) {
	strategies.Register(name, f, aliases...)
}

// NewClusterStrategy constructs the registered strategy called name.
func NewClusterStrategy(name string, seam ClusterSeam) (ClusterStrategy, error) {
	f, err := strategies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(seam), nil
}

// HasClusterStrategy reports whether name resolves to a registered strategy.
func HasClusterStrategy(name string) bool { return strategies.Has(name) }

// ClusterStrategyNames returns the registered strategy names (canonical
// form, sorted).
func ClusterStrategyNames() []string { return strategies.Names() }

// placer is what every clustering strategy shares: the layers below it, the
// inherited-attribute cost model, the statistics, the sequential fill page, and the scratch buffers handed out through
// Placement. Its fill path is the paper's No_Cluster rule: the affinity
// Clusterer falls back to it, DSTC places through it when no warm neighbor
// has room, and DRO places and evacuates through nothing else.
type placer struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	// AttrCost drives the copy-vs-reference decision for inherited
	// attributes at creation time.
	AttrCost AttrCostModel

	frontier storage.PageID // sequential fill page (No_Cluster placements)
	stats    ClusterStats

	ios   []PhysIO         // Placement.IOs backing store
	dirty []storage.PageID // Placement.DirtyPages backing store
}

func newPlacer(g *model.Graph, st storage.Backend, pool buffer.Frames) placer {
	return placer{Graph: g, Store: st, Pool: pool, AttrCost: DefaultAttrCostModel}
}

// setup applies the seam's page size.
func (p *placer) setup(s ClusterSeam) {
	if s.PageSize > 0 {
		p.AttrCost.PageSize = s.PageSize
	}
}

// cloneOnto returns p's algorithm state — the cost model and the fill
// page — over the given layers, with zeroed statistics and fresh scratch.
func (p *placer) cloneOnto(g *model.Graph, st storage.Backend, pool buffer.Frames) placer {
	return placer{Graph: g, Store: st, Pool: pool, AttrCost: p.AttrCost, frontier: p.frontier}
}

// Stats returns a copy of the clustering statistics.
func (p *placer) Stats() ClusterStats { return p.stats }

// ResetStats zeroes the statistics. Algorithm state — fill pages, DSTC's
// temperatures, DRO's watchlist — survives: the engine resets statistics
// after database construction.
func (p *placer) ResetStats() { p.stats = ClusterStats{} }

// begin is the preamble of every PlaceNew: o must be unplaced, the
// placement is counted, and o's inherited attributes get their
// representations, a choice that feeds back into the traversal frequencies
// that drive placement.
func (p *placer) begin(o *model.Object) error {
	if p.Store.PageOf(o.ID) != storage.NilPage {
		return fmt.Errorf("core: object %d already placed", o.ID)
	}
	p.stats.Placements++
	ChooseAttrImpls(p.Graph, o, p.AttrCost)
	return nil
}

// keep records the (possibly regrown) scratch buffers for reuse.
func (p *placer) keep(ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID) {
	p.ios, p.dirty = ios, dirty
	return ios, dirty
}

// countMove counts one relocated object.
func (p *placer) countMove() {
	p.stats.Moves++
}

// freshPage allocates a page and installs it in the pool, appending the
// implied I/Os (at most a victim flush) to ios.
func (p *placer) freshPage(ios []PhysIO) (storage.PageID, []PhysIO, error) {
	pg := p.Store.AllocatePage()
	res, err := p.Pool.Install(pg)
	if err != nil {
		return pg, ios, err
	}
	ios = AppendExpandAccess(ios, res, pg)
	if n := len(ios); n > 0 && ios[n-1].Kind == ReadIO && ios[n-1].Page == pg {
		ios = ios[:n-1] // fresh pages have no disk image to read
	}
	return pg, ios, nil
}

// fillPage makes the page o goes to under sequential fill resident: *fill
// while o fits on it, otherwise a fresh page that becomes the new *fill.
func (p *placer) fillPage(o *model.Object, ios []PhysIO, fill *storage.PageID) (storage.PageID, []PhysIO, error) {
	if *fill != storage.NilPage && p.Store.Fits(o.Size, *fill) {
		res, err := p.Pool.Access(*fill)
		if err != nil {
			return *fill, ios, err
		}
		return *fill, AppendExpandAccess(ios, res, *fill), nil
	}
	pg, ios, err := p.freshPage(ios)
	if err == nil {
		*fill = pg
	}
	return pg, ios, err
}

// placeFill places o on its fill page (see fillPage). ios and dirty carry
// whatever the caller already did in this placement.
func (p *placer) placeFill(o *model.Object, ios []PhysIO, dirty []storage.PageID, fill *storage.PageID) (Placement, error) {
	pg, ios, err := p.fillPage(o, ios, fill)
	if err == nil {
		err = p.Store.Place(o.ID, pg)
	}
	if err != nil {
		ios, _ = p.keep(ios, dirty)
		return Placement{IOs: ios}, err
	}
	ios, dirty = p.keep(ios, append(dirty, pg))
	return Placement{IOs: ios, Page: pg, DirtyPages: dirty}, nil
}

// noCluster is the "noop" strategy, the paper's No_Cluster: the affinity
// clusterer pinned to PolicyNoCluster, wrapped so the adaptive extension
// finds no PolicyTuner to switch it into clustering.
type noCluster struct{ ClusterStrategy }

// CloneOnto implements StrategyCloner.
func (n noCluster) CloneOnto(g *model.Graph, st storage.Backend, pool buffer.Frames) ClusterStrategy {
	return noCluster{n.ClusterStrategy.(*Clusterer).CloneOnto(g, st, pool)}
}

// newAffinity builds the paper's clusterer from the seam.
func newAffinity(s ClusterSeam) ClusterStrategy {
	c := NewClusterer(s.Graph, s.Store, s.Pool)
	c.setup(s)
	c.Policy = s.Policy
	c.Split = s.Split
	c.Hints = s.Hints
	c.Hint = s.Hint
	c.NoSiblingCandidates = s.NoSiblingCandidates
	return c
}

func init() {
	RegisterClusterStrategy("affinity", newAffinity, "default")
	RegisterClusterStrategy("noop", func(s ClusterSeam) ClusterStrategy {
		s.Policy = PolicyNoCluster
		return noCluster{newAffinity(s)}
	}, "none")

	// The context-sensitive replacement policy needs this package's
	// structural machinery, so it registers here rather than in the buffer
	// package; the protected-level bound follows the engine's long-standing
	// three-quarters-of-the-pool sizing.
	buffer.RegisterPolicy("context-sensitive", func(c buffer.PolicyConfig) buffer.Policy {
		return NewContextPolicy(float64(c.Frames) * 3 / 4)
	}, "context")
}
