package core

import (
	"fmt"
	"sync/atomic"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/storage"
)

// DSTCClusterer implements the Dynamic, Statistical, Tunable Clustering
// policy (Darmont et al.) as a registry strategy ("dstc"). Where Chang &
// Katz's affinity clusterer ranks candidate pages from static structure
// semantics at placement time, DSTC watches the actual access stream:
//
//   - Observation: every logical read bumps a per-object counter
//     (NoteAccess, the engine's AccessObserver feed). Counters are updated
//     with atomic adds only, so concurrent reader sessions share one
//     strategy instance without locks and without touching the buffer pool
//     — the read path stays invisible to the oracle's read-mapping
//     invariants.
//   - Consolidation: once a window of WindowSize observed accesses fills,
//     the next write-path entry (PlaceNew/Recluster, always under the
//     engine's exclusive guard) folds the window into exponentially decayed
//     temperatures: temp = temp/2 + window.
//   - Reorganization: after consolidating, objects whose temperature
//     reaches HeatThreshold are examined in ID order (deterministic) and
//     moved next to their warmest linked neighbor when that page has room —
//     at most MaxMoves relocations per trigger, so one placement never
//     absorbs an unbounded reorganization. Moves flow through
//     storage.Backend.Move (journaled by the file backend's WAL) and the
//     touched pages fold into the returned Placement's IOs/DirtyPages, so
//     the engine charges, dirties, and logs them like any other write.
//
// New objects place next to their warmest placed neighbor when it fits,
// falling back to a sequential fill page; reclustering moves an object that
// is itself hot next to its warmest linked neighbor.
type DSTCClusterer struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	// AttrCost drives the copy-vs-reference decision for inherited
	// attributes, as in every other strategy.
	AttrCost AttrCostModel

	// WindowSize is the observed-access count that closes an observation
	// window and triggers consolidation (0 disables reorganization).
	WindowSize int
	// HeatThreshold is the consolidated temperature at which an object
	// qualifies for triggered relocation.
	HeatThreshold uint32
	// MaxMoves bounds the relocations one trigger performs.
	MaxMoves int

	frontier storage.PageID
	winOps   uint32   // accesses observed in the current window (atomic)
	heat     []uint32 // per-object window counters, indexed by ObjectID (atomic)
	temps    []uint32 // consolidated temperatures (write path only)
	stats    ClusterStats
	rec      obs.Recorder

	ios   []PhysIO         // Placement.IOs backing store
	dirty []storage.PageID // Placement.DirtyPages backing store
}

// NewDSTCClusterer returns a DSTC strategy over the given layers with the
// tournament defaults.
func NewDSTCClusterer(g *model.Graph, st storage.Backend, pool buffer.Frames) *DSTCClusterer {
	return &DSTCClusterer{
		Graph: g, Store: st, Pool: pool,
		AttrCost:      DefaultAttrCostModel,
		WindowSize:    256,
		HeatThreshold: 3,
		MaxMoves:      4,
	}
}

// Name implements ClusterStrategy.
func (s *DSTCClusterer) Name() string { return "dstc" }

// Stats implements ClusterStrategy.
func (s *DSTCClusterer) Stats() ClusterStats { return s.stats }

// ResetStats implements ClusterStrategy. Temperatures and window counters
// are algorithm state, not reporting statistics, so they survive the reset
// (the engine resets statistics after database construction).
func (s *DSTCClusterer) ResetStats() { s.stats = ClusterStats{} }

// SetRecorder installs the instrumentation hook; nil disables it.
func (s *DSTCClusterer) SetRecorder(r obs.Recorder) { s.rec = r }

// NoteAccess implements AccessObserver: one logical read of id. Atomic adds
// only — concurrent reader sessions call this without the write guard.
func (s *DSTCClusterer) NoteAccess(id model.ObjectID) {
	if i := int(id); i > 0 && i < len(s.heat) {
		atomic.AddUint32(&s.heat[i], 1)
		atomic.AddUint32(&s.winOps, 1)
	}
}

// NoteRemoved implements AccessObserver: id is about to leave the store, so
// its statistics must not attract future placements. Runs on the write path
// (exclusive), before the storage removal.
func (s *DSTCClusterer) NoteRemoved(id model.ObjectID) {
	if i := int(id); i > 0 && i < len(s.heat) {
		atomic.StoreUint32(&s.heat[i], 0)
		s.temps[i] = 0
	}
}

// ensure grows the counter arrays to cover id. Growth happens only on the
// write path (PlaceNew), which the engine serializes; readers observe the
// new header through the lock handoff.
func (s *DSTCClusterer) ensure(id model.ObjectID) {
	for int(id) >= len(s.heat) {
		s.heat = append(s.heat, 0)
		s.temps = append(s.temps, 0)
	}
}

// tempOf is id's current temperature: the consolidated value plus the
// still-open window.
func (s *DSTCClusterer) tempOf(id model.ObjectID) uint32 {
	i := int(id)
	if i <= 0 || i >= len(s.temps) {
		return 0
	}
	return s.temps[i] + atomic.LoadUint32(&s.heat[i])
}

// warmestLinkedPage returns the page of o's warmest placed neighbor that
// has room for o, excluding page skip. Ties resolve to the first neighbor
// in relationship-kind and slice order, so the choice is deterministic.
func (s *DSTCClusterer) warmestLinkedPage(o *model.Object, skip storage.PageID) storage.PageID {
	best := storage.NilPage
	var bestTemp uint32
	for kind := model.RelKind(0); kind < model.NumRelKinds; kind++ {
		for i, cnt := 0, o.NeighborCount(kind); i < cnt; i++ {
			n := o.NeighborAt(kind, i)
			pg := s.Store.PageOf(n)
			if pg == storage.NilPage || pg == skip {
				continue
			}
			t := s.tempOf(n)
			if best != storage.NilPage && t <= bestTemp {
				continue
			}
			if !s.Store.Fits(o.Size, pg) {
				continue
			}
			best, bestTemp = pg, t
		}
	}
	return best
}

// maybeReorganize runs the consolidation + triggered-reorganization phase
// when the observation window has filled. Write path only. The I/Os and
// dirtied pages of any relocations append to ios/dirty.
func (s *DSTCClusterer) maybeReorganize(ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID, error) {
	if s.WindowSize <= 0 || atomic.LoadUint32(&s.winOps) < uint32(s.WindowSize) {
		return ios, dirty, nil
	}
	atomic.StoreUint32(&s.winOps, 0)
	for i := range s.temps {
		s.temps[i] = s.temps[i]/2 + atomic.LoadUint32(&s.heat[i])
		atomic.StoreUint32(&s.heat[i], 0)
	}
	s.stats.Consolidations++

	moves := 0
	for i := 1; i < len(s.temps) && moves < s.MaxMoves; i++ {
		if s.temps[i] < s.HeatThreshold {
			continue
		}
		id := model.ObjectID(i)
		o := s.Graph.Object(id)
		if o == nil {
			continue
		}
		cur := s.Store.PageOf(id)
		if cur == storage.NilPage {
			continue
		}
		pg := s.warmestLinkedPage(o, cur)
		if pg == storage.NilPage {
			continue // already co-located with its warmest neighbor, or no room
		}
		var err error
		if ios, dirty, err = s.moveTo(id, cur, pg, ios, dirty); err != nil {
			return ios, dirty, err
		}
		// Halve the mover's temperature so one hot object cannot consume
		// every trigger's move budget chasing an oscillating neighborhood.
		s.temps[i] /= 2
		moves++
	}
	if moves > 0 {
		s.stats.DynMoves += moves
	}
	return ios, dirty, nil
}

// moveTo relocates id from page cur to page pg: both pages become resident
// (charged as I/Os) and dirty, and the move is applied through the backend
// so a durable backend journals it.
func (s *DSTCClusterer) moveTo(id model.ObjectID, cur, pg storage.PageID, ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID, error) {
	res, err := s.Pool.Access(cur)
	if err != nil {
		return ios, dirty, err
	}
	ios = AppendExpandAccess(ios, res, cur)
	res, err = s.Pool.Access(pg)
	if err != nil {
		return ios, dirty, err
	}
	ios = AppendExpandAccess(ios, res, pg)
	if err := s.Store.Move(id, pg); err != nil {
		return ios, dirty, err
	}
	s.stats.Moves++
	if s.rec != nil {
		s.rec.Count(obs.ClusterMove, 1)
	}
	return ios, append(dirty, cur, pg), nil
}

// keep records the (possibly regrown) scratch buffers for reuse.
func (s *DSTCClusterer) keep(ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID) {
	s.ios, s.dirty = ios, dirty
	return ios, dirty
}

// PlaceNew implements ClusterStrategy: place next to the warmest placed
// neighbor when it fits, else append to the sequential fill page. A filled
// observation window is consolidated first.
func (s *DSTCClusterer) PlaceNew(o *model.Object) (Placement, error) {
	if s.Store.PageOf(o.ID) != storage.NilPage {
		return Placement{}, fmt.Errorf("core: object %d already placed", o.ID)
	}
	s.stats.Placements++
	if s.rec != nil {
		s.rec.Count(obs.ClusterPlacement, 1)
	}
	ChooseAttrImpls(s.Graph, o, s.AttrCost)
	s.ensure(o.ID)

	ios, dirty, err := s.maybeReorganize(s.ios[:0], s.dirty[:0])
	if err != nil {
		ios, _ = s.keep(ios, dirty)
		return Placement{IOs: ios}, err
	}
	if pg := s.warmestLinkedPage(o, storage.NilPage); pg != storage.NilPage {
		res, err := s.Pool.Access(pg)
		if err != nil {
			ios, _ = s.keep(ios, dirty)
			return Placement{IOs: ios}, err
		}
		ios = AppendExpandAccess(ios, res, pg)
		if err := s.Store.Place(o.ID, pg); err != nil {
			ios, _ = s.keep(ios, dirty)
			return Placement{IOs: ios}, err
		}
		ios, dirty = s.keep(ios, append(dirty, pg))
		return Placement{IOs: ios, Page: pg, DirtyPages: dirty}, nil
	}
	s.stats.FrontierFalls++
	return s.placeFill(o, ios, dirty)
}

// placeFill appends o to the shared fill page, allocating a fresh one when
// it does not fit.
func (s *DSTCClusterer) placeFill(o *model.Object, ios []PhysIO, dirty []storage.PageID) (Placement, error) {
	if s.frontier == storage.NilPage || !s.Store.Fits(o.Size, s.frontier) {
		pg := s.Store.AllocatePage()
		res, err := s.Pool.Install(pg)
		if err != nil {
			ios, _ = s.keep(ios, dirty)
			return Placement{IOs: ios}, err
		}
		ios = AppendExpandAccess(ios, res, pg)
		if l := len(ios); l > 0 && ios[l-1].Kind == ReadIO && ios[l-1].Page == pg {
			ios = ios[:l-1] // fresh pages have no disk image to read
		}
		s.frontier = pg
	} else {
		res, err := s.Pool.Access(s.frontier)
		if err != nil {
			ios, _ = s.keep(ios, dirty)
			return Placement{IOs: ios}, err
		}
		ios = AppendExpandAccess(ios, res, s.frontier)
	}
	if err := s.Store.Place(o.ID, s.frontier); err != nil {
		ios, _ = s.keep(ios, dirty)
		return Placement{IOs: ios}, err
	}
	ios, dirty = s.keep(ios, append(dirty, s.frontier))
	return Placement{IOs: ios, Page: s.frontier, DirtyPages: dirty}, nil
}

// Recluster implements ClusterStrategy: after a structural change, a hot
// object moves next to its warmest linked neighbor. A filled observation
// window is consolidated first (it may relocate other objects; their pages
// ride along in the returned Placement).
func (s *DSTCClusterer) Recluster(o *model.Object) (Placement, error) {
	if s.Store.PageOf(o.ID) == storage.NilPage {
		return Placement{}, storage.ErrNotPlaced
	}
	s.stats.Reclusterings++
	ios, dirty, err := s.maybeReorganize(s.ios[:0], s.dirty[:0])
	cur := s.Store.PageOf(o.ID) // reorganization may have moved o itself
	if err != nil {
		ios, dirty = s.keep(ios, dirty)
		return Placement{IOs: ios, Page: cur, DirtyPages: dirty}, err
	}
	if s.tempOf(o.ID) >= s.HeatThreshold {
		if pg := s.warmestLinkedPage(o, cur); pg != storage.NilPage {
			if ios, dirty, err = s.moveTo(o.ID, cur, pg, ios, dirty); err != nil {
				ios, dirty = s.keep(ios, dirty)
				return Placement{IOs: ios, Page: cur, DirtyPages: dirty}, err
			}
			ios, dirty = s.keep(ios, dirty)
			return Placement{IOs: ios, Page: pg, DirtyPages: dirty, Moved: true}, nil
		}
	}
	ios, dirty = s.keep(ios, dirty)
	return Placement{IOs: ios, Page: cur, DirtyPages: dirty}, nil
}

var (
	_ ClusterStrategy = (*DSTCClusterer)(nil)
	_ AccessObserver  = (*DSTCClusterer)(nil)
)

func init() {
	RegisterClusterStrategy("dstc", func(s ClusterSeam) ClusterStrategy {
		c := NewDSTCClusterer(s.Graph, s.Store, s.Pool)
		if s.PageSize > 0 {
			c.AttrCost.PageSize = s.PageSize
		}
		c.SetRecorder(s.Recorder)
		return c
	})
}
