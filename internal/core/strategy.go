package core

import (
	"fmt"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/registry"
	"oodb/internal/storage"
)

// ClusterStrategy is the clustering seam: the engine places and re-places
// objects through this interface only, so alternative placement algorithms
// plug in without touching the execution layer. The affinity-driven
// Clusterer in this package is the reference implementation.
type ClusterStrategy interface {
	// Name identifies the strategy in reports and registries.
	Name() string
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

// PrefetchStrategy is the prefetch seam: after each root object access the
// engine hands the touched object to the strategy, which may boost resident
// pages or return background read I/Os. The Prefetcher in this package is
// the reference implementation of the paper's three prefetch scopes.
type PrefetchStrategy interface {
	// OnAccess runs the prefetch policy after object o was touched,
	// returning the physical I/Os prefetching triggered. The returned slice
	// may be scratch-backed: it is valid until the next OnAccess call.
	OnAccess(o *model.Object) ([]PhysIO, error)
	// Stats returns a copy of the prefetch statistics.
	Stats() PrefetchStats
	// ResetStats zeroes the statistics.
	ResetStats()
}

var (
	_ ClusterStrategy  = (*Clusterer)(nil)
	_ PolicyTuner      = (*Clusterer)(nil)
	_ ClusterStrategy  = (*NoopClusterer)(nil)
	_ PrefetchStrategy = (*Prefetcher)(nil)
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
	// Recorder receives layer-local instrumentation events; nil disables.
	Recorder obs.Recorder
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

// NoopClusterer is the trivial clustering strategy: every object appends to
// a shared sequential frontier page regardless of structure, and
// reclustering never moves anything. It is the seam's proof-of-plurality —
// registered as "noop" — and a harsher baseline than No_Cluster, which at
// least flows through the affinity machinery.
type NoopClusterer struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	// AttrCost drives the copy-vs-reference decision for inherited
	// attributes; even a placement-blind store must decide representations.
	AttrCost AttrCostModel

	frontier storage.PageID
	stats    ClusterStats
	rec      obs.Recorder

	ios   []PhysIO         // Placement.IOs backing store
	dirty []storage.PageID // Placement.DirtyPages backing store
}

// NewNoopClusterer returns a no-op strategy over the given layers.
func NewNoopClusterer(g *model.Graph, st storage.Backend, pool buffer.Frames) *NoopClusterer {
	return &NoopClusterer{Graph: g, Store: st, Pool: pool, AttrCost: DefaultAttrCostModel}
}

// Name implements ClusterStrategy.
func (n *NoopClusterer) Name() string { return "noop" }

// Stats implements ClusterStrategy.
func (n *NoopClusterer) Stats() ClusterStats { return n.stats }

// ResetStats implements ClusterStrategy.
func (n *NoopClusterer) ResetStats() { n.stats = ClusterStats{} }

// SetRecorder installs the instrumentation hook; nil disables it.
func (n *NoopClusterer) SetRecorder(r obs.Recorder) { n.rec = r }

// PlaceNew implements ClusterStrategy: append to the frontier page,
// allocating a fresh one when the object does not fit.
func (n *NoopClusterer) PlaceNew(o *model.Object) (Placement, error) {
	if n.Store.PageOf(o.ID) != storage.NilPage {
		return Placement{}, fmt.Errorf("core: object %d already placed", o.ID)
	}
	n.stats.Placements++
	if n.rec != nil {
		n.rec.Count(obs.ClusterPlacement, 1)
	}
	ChooseAttrImpls(n.Graph, o, n.AttrCost)
	ios := n.ios[:0]
	if n.frontier == storage.NilPage || !n.Store.Fits(o.Size, n.frontier) {
		pg := n.Store.AllocatePage()
		res, err := n.Pool.Install(pg)
		if err != nil {
			n.ios = ios
			return Placement{IOs: ios}, err
		}
		ios = AppendExpandAccess(ios, res, pg)
		if l := len(ios); l > 0 && ios[l-1].Kind == ReadIO && ios[l-1].Page == pg {
			ios = ios[:l-1] // fresh pages have no disk image to read
		}
		n.frontier = pg
	} else {
		res, err := n.Pool.Access(n.frontier)
		if err != nil {
			n.ios = ios
			return Placement{IOs: ios}, err
		}
		ios = AppendExpandAccess(ios, res, n.frontier)
	}
	if err := n.Store.Place(o.ID, n.frontier); err != nil {
		n.ios = ios
		return Placement{IOs: ios}, err
	}
	n.ios = ios
	n.dirty = append(n.dirty[:0], n.frontier)
	return Placement{IOs: ios, Page: n.frontier, DirtyPages: n.dirty}, nil
}

// Recluster implements ClusterStrategy: never moves anything.
func (n *NoopClusterer) Recluster(o *model.Object) (Placement, error) {
	cur := n.Store.PageOf(o.ID)
	if cur == storage.NilPage {
		return Placement{}, storage.ErrNotPlaced
	}
	return Placement{Page: cur}, nil
}

func init() {
	RegisterClusterStrategy("affinity", func(s ClusterSeam) ClusterStrategy {
		c := NewClusterer(s.Graph, s.Store, s.Pool)
		c.Policy = s.Policy
		c.Split = s.Split
		c.Hints = s.Hints
		c.Hint = s.Hint
		if s.PageSize > 0 {
			c.AttrCost.PageSize = s.PageSize
		}
		c.NoSiblingCandidates = s.NoSiblingCandidates
		c.SetRecorder(s.Recorder)
		return c
	}, "default")
	RegisterClusterStrategy("noop", func(s ClusterSeam) ClusterStrategy {
		n := NewNoopClusterer(s.Graph, s.Store, s.Pool)
		if s.PageSize > 0 {
			n.AttrCost.PageSize = s.PageSize
		}
		n.SetRecorder(s.Recorder)
		return n
	}, "none")

	// The context-sensitive replacement policy needs this package's
	// structural machinery, so it registers here rather than in the buffer
	// package; the protected-level bound follows the engine's long-standing
	// three-quarters-of-the-pool sizing.
	buffer.RegisterPolicy("context-sensitive", func(c buffer.PolicyConfig) buffer.Policy {
		return NewContextPolicy(float64(c.Frames) * 3 / 4)
	}, "context")
}
