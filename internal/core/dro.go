package core

import (
	"fmt"

	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// DROClusterer implements the Dynamic Reorganization by Object
// demotion/evacuation policy in the spirit of Darmont's "advocacy for
// simplicity" (DRO): no per-object statistics at all. Placement is the
// paper's No_Cluster sequential fill (placer's fill path) — the cheapest
// possible rule — and the only dynamic work is an evacuation sweep that
// garbage-collects flagrantly bad pages: deletions and relocations
// leave pages nearly empty, those pages are remembered (NoteRemoved), and
// once enough removals accumulate a sweep evacuates every page still below
// the MinLoad fill fraction onto the fill frontier, reclaiming locality and
// space in one bounded pass. Evacuation moves flow through
// storage.Backend.Move (journaled by the file backend's WAL) and fold into
// the returned Placement's IOs/DirtyPages like any other write.
//
// The read path is completely free: NoteAccess is a no-op, so the strategy
// is exactly as oracle-invisible on read-only runs as No_Cluster ("noop").
type DROClusterer struct {
	placer

	// SweepEvery is the removal count that triggers a sweep (0 disables).
	SweepEvery int
	// MinLoad is the fill fraction below which a non-empty page is
	// flagrantly bad and gets evacuated.
	MinLoad float64
	// MaxBad bounds the watchlist of suspect pages between sweeps.
	MaxBad int

	removals int
	bad      []storage.PageID
	evac     []model.ObjectID // sweep evacuation scratch
}

// NewDROClusterer returns a DRO strategy over the given layers with the
// tournament defaults.
func NewDROClusterer(g *model.Graph, st storage.Backend, pool buffer.Frames) *DROClusterer {
	return &DROClusterer{
		placer:     newPlacer(g, st, pool),
		SweepEvery: 32,
		// Construction packs pages to ~95%; a page that has lost a quarter
		// of its payload to removals is the flagrant outlier DRO hunts.
		MinLoad: 0.75,
		MaxBad:  16,
	}
}

// NoteAccess implements AccessObserver as a no-op: DRO keeps no access
// statistics — that is its whole argument.
func (d *DROClusterer) NoteAccess(model.ObjectID) {}

// NoteRemoved implements AccessObserver: id's page just lost an object and
// may now be flagrantly underfull; remember it for the next sweep. Runs on
// the write path (exclusive), before the storage removal.
func (d *DROClusterer) NoteRemoved(id model.ObjectID) {
	d.removals++
	pg := d.Store.PageOf(id)
	if pg == storage.NilPage || containsPage(d.bad, pg) || len(d.bad) >= d.MaxBad {
		return
	}
	d.bad = append(d.bad, pg)
}

// maybeSweep evacuates every watched page still below the MinLoad fill
// fraction once enough removals have accumulated. Write path only.
func (d *DROClusterer) maybeSweep(ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID, error) {
	if d.SweepEvery <= 0 || d.removals < d.SweepEvery {
		return ios, dirty, nil
	}
	d.removals = 0
	minUsed := int(d.MinLoad * float64(d.Store.PageSize()))
	for _, pg := range d.bad {
		if pg == d.frontier {
			continue // the fill page is supposed to be partially full
		}
		used := d.Store.PageSize() - d.Store.FreeSpace(pg)
		if used == 0 || used >= minUsed {
			continue // empty pages cost nothing; refilled pages recovered
		}
		// ObjectsOn's slice mutates as objects move off the page: copy first.
		d.evac = append(d.evac[:0], d.Store.ObjectsOn(pg)...)
		res, err := d.Pool.Access(pg)
		if err != nil {
			return ios, dirty, err
		}
		ios = AppendExpandAccess(ios, res, pg)
		dirty = append(dirty, pg)
		for _, id := range d.evac {
			var err error
			if ios, dirty, err = d.moveToFill(id, ios, dirty); err != nil {
				return ios, dirty, err
			}
		}
		d.stats.Evacuations++
		d.stats.DynMoves += len(d.evac)
	}
	d.bad = d.bad[:0]
	return ios, dirty, nil
}

// moveToFill relocates id onto the fill frontier, allocating a fresh
// frontier page when it does not fit.
func (d *DROClusterer) moveToFill(id model.ObjectID, ios []PhysIO, dirty []storage.PageID) ([]PhysIO, []storage.PageID, error) {
	o := d.Graph.Object(id)
	if o == nil {
		return ios, dirty, fmt.Errorf("core: evacuating unknown object %d", id)
	}
	pg, ios, err := d.fillPage(o, ios, &d.frontier)
	if err != nil {
		return ios, dirty, err
	}
	if err := d.Store.Move(id, pg); err != nil {
		return ios, dirty, err
	}
	d.countMove()
	return ios, append(dirty, pg), nil
}

// PlaceNew implements ClusterStrategy: No_Cluster's sequential fill, with a
// pending sweep folded in first.
func (d *DROClusterer) PlaceNew(o *model.Object) (Placement, error) {
	if err := d.begin(o); err != nil {
		return Placement{}, err
	}
	ios, dirty, err := d.maybeSweep(d.ios[:0], d.dirty[:0])
	if err != nil {
		ios, _ = d.keep(ios, dirty)
		return Placement{IOs: ios}, err
	}
	return d.placeFill(o, ios, dirty, &d.frontier)
}

// Recluster implements ClusterStrategy: DRO never chases structural churn —
// it only folds in a pending sweep (which may move the object itself if its
// page was flagrantly bad).
func (d *DROClusterer) Recluster(o *model.Object) (Placement, error) {
	if d.Store.PageOf(o.ID) == storage.NilPage {
		return Placement{}, storage.ErrNotPlaced
	}
	d.stats.Reclusterings++
	ios, dirty, err := d.maybeSweep(d.ios[:0], d.dirty[:0])
	pg := d.Store.PageOf(o.ID) // the sweep may have moved o
	ios, dirty = d.keep(ios, dirty)
	if err != nil {
		return Placement{IOs: ios, Page: pg, DirtyPages: dirty}, err
	}
	return Placement{IOs: ios, Page: pg, DirtyPages: dirty}, nil
}

var (
	_ ClusterStrategy = (*DROClusterer)(nil)
	_ AccessObserver  = (*DROClusterer)(nil)
)

func init() {
	RegisterClusterStrategy("dro", func(s ClusterSeam) ClusterStrategy {
		c := NewDROClusterer(s.Graph, s.Store, s.Pool)
		c.setup(s)
		return c
	})
}
