package core

import (
	"sync/atomic"

	"oodb/internal/buffer"
	"oodb/internal/model"
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
	placer

	// WindowSize is the observed-access count that closes an observation
	// window and triggers consolidation (0 disables reorganization).
	WindowSize int
	// HeatThreshold is the consolidated temperature at which an object
	// qualifies for triggered relocation.
	HeatThreshold uint32
	// MaxMoves bounds the relocations one trigger performs.
	MaxMoves int

	winOps uint32   // accesses observed in the current window (atomic)
	heat   []uint32 // per-object window counters, indexed by ObjectID (atomic)
	temps  []uint32 // consolidated temperatures (write path only)
}

// NewDSTCClusterer returns a DSTC strategy over the given layers with the
// tournament defaults.
func NewDSTCClusterer(g *model.Graph, st storage.Backend, pool buffer.Frames) *DSTCClusterer {
	return &DSTCClusterer{
		placer:        newPlacer(g, st, pool),
		WindowSize:    256,
		HeatThreshold: 3,
		MaxMoves:      4,
	}
}

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
	s.countMove()
	return ios, append(dirty, cur, pg), nil
}

// PlaceNew implements ClusterStrategy: place next to the warmest placed
// neighbor when it fits, else append to the sequential fill page. A filled
// observation window is consolidated first.
func (s *DSTCClusterer) PlaceNew(o *model.Object) (Placement, error) {
	if err := s.begin(o); err != nil {
		return Placement{}, err
	}
	s.ensure(o.ID)

	ios, dirty, err := s.maybeReorganize(s.ios[:0], s.dirty[:0])
	if err != nil {
		ios, _ = s.keep(ios, dirty)
		return Placement{IOs: ios}, err
	}
	if pg := s.warmestLinkedPage(o, storage.NilPage); pg != storage.NilPage {
		// pg has room for o, so filling it only makes it resident.
		return s.placeFill(o, ios, dirty, &pg)
	}
	s.stats.FrontierFalls++
	return s.placeFill(o, ios, dirty, &s.frontier)
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
		c.setup(s)
		return c
	})
}
