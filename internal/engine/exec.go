package engine

import (
	"fmt"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// execute runs transaction req against the functional layer, returning the
// ordered physical I/O program and the logical operation count. All graph,
// storage, buffer, cluster, and log mutations happen here, atomically at
// submission time; only the timing is simulated afterwards. Prefetch I/Os
// gathered during execution land in a.pendingBG: they are *background*
// work — dispatched to the disks for queueing load but not serialized into
// the transaction's response path, the asynchrony that makes
// prefetch-within-database worth its extra I/Os (Section 5.2).
func (a *stack) execute(txn int, req workload.Op) (ios []core.PhysIO, logical int, err error) {
	switch req.Kind {
	case workload.QSimpleLookup:
		return a.readClosure(req.Target)
	case workload.QComponentRetrieval:
		return a.readClosure(req.Target, model.ConfigDown)
	case workload.QCompositeRetrieval:
		return a.readClosure(req.Target, model.ConfigUp)
	case workload.QDescendantVersion:
		return a.readClosure(req.Target, model.VersionDescendant)
	case workload.QAncestorVersion:
		return a.readClosure(req.Target, model.VersionAncestor)
	case workload.QCorresponding:
		return a.readClosure(req.Target, model.Correspondence)
	case workload.QInsert:
		return a.execInsert(txn, req)
	case workload.QUpdate:
		return a.execUpdate(txn, req)
	case workload.QStructUpdate:
		return a.execStructUpdate(txn, req)
	case workload.QDerive:
		return a.execDerive(txn, req)
	case workload.QScan:
		return a.execScan(req)
	case workload.QCheckout:
		return a.execCheckout(req)
	case workload.QDelete:
		return a.execDelete(txn, req)
	case workload.QOCBScan:
		return a.execScan(req)
	case workload.QOCBSimple:
		return a.execOCBSimple(req)
	case workload.QOCBHierarchy:
		return a.execOCBHierarchy(req)
	case workload.QOCBStochastic:
		return a.execOCBPath(req)
	case workload.QOCBInsert:
		return a.execOCBInsert(txn, req)
	case workload.QOCBDelete:
		return a.execOCBDelete(txn, req)
	case workload.QOCBUpdate:
		return a.execOCBUpdate(txn, req)
	case workload.QOCBRewire:
		return a.execOCBRewire(txn, req)
	}
	return nil, 0, fmt.Errorf("engine: unknown query kind %v", req.Kind)
}

// readObject performs one logical read: buffer access for the object's page
// (expanding to victim-flush + read on a miss) and, when boost is true, the
// context-sensitive relationship boosts (scans do not assert structural
// relevance). When prefetch is true — the touched object is the root of a
// navigation, not one of its expansion targets — the prefetch policy runs
// too, accumulating its I/Os as background work.
func (a *stack) readObject(dst []core.PhysIO, id model.ObjectID, prefetch, boost bool) ([]core.PhysIO, error) {
	o := a.graph.Object(id)
	if o == nil {
		// The object was deleted between transaction generation and
		// execution (a lock wait can reorder them). A real DBMS returns
		// not-found; the lookup still costs a logical operation but no I/O.
		a.notFound++
		a.foldRead(id, false)
		return dst, nil
	}
	pg := a.store.PageOf(id)
	if pg == storage.NilPage {
		return dst, fmt.Errorf("engine: object %d is unplaced", id)
	}
	res, err := a.pool.Access(pg)
	if err != nil {
		return dst, err
	}
	a.foldRead(id, true)
	if res.Hit {
		a.hits++
	}
	if a.obsv != nil {
		a.obsv.NoteAccess(id)
	}
	dst = core.AppendExpandAccess(dst, res, pg)

	// The context-sensitive replacement policy uses structural knowledge on
	// every access: pages related to the touched object gain priority.
	if boost && a.boostContext {
		limit := a.boostLimit
		if limit == 0 {
			limit = core.ContextNeighborLimit
		}
		a.boostBuf = core.AppendContextBoostPages(a.boostBuf[:0], a.graph, a.store, o, limit)
		for _, rp := range a.boostBuf {
			a.pool.Boost(rp)
		}
	}
	if prefetch {
		pfIOs, err := a.pf.OnAccess(o)
		if err != nil {
			return dst, err
		}
		a.pendingBG = append(a.pendingBG, pfIOs...)
	}
	return dst, nil
}

// readClosure reads target and its one-hop neighbors along each of kinds
// (none for a simple lookup) — the shape of all six read query types.
// Prefetching fires on the navigation root ("touching an object causes the
// page containing it and the pages containing its immediate subcomponents
// to be brought in").
func (a *stack) readClosure(target model.ObjectID, kinds ...model.RelKind) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, target, true, true)
	if err != nil {
		return nil, 0, err
	}
	logical := 1
	if o := a.graph.Object(target); o != nil {
		// Copy: prefetch/boost paths never mutate relationship slices, but
		// being defensive here is cheap and keeps the invariant local.
		targets := a.expandBuf[:0]
		for _, k := range kinds {
			targets = append(targets, o.Neighbors(k)...)
		}
		a.expandBuf = targets
		for _, c := range targets {
			ios, err = a.readObject(ios, c, false, true)
			if err != nil {
				return nil, 0, err
			}
			logical++
		}
	}
	return ios, logical, nil
}

// ensureDirty marks pg dirty, re-fetching it first if a later access of the
// same transaction evicted it.
func (a *stack) ensureDirty(dst []core.PhysIO, pg storage.PageID) ([]core.PhysIO, error) {
	if !a.pool.Contains(pg) {
		res, err := a.pool.Access(pg)
		if err != nil {
			return dst, err
		}
		dst = core.AppendExpandAccess(dst, res, pg)
	}
	if err := a.pool.MarkDirty(pg); err != nil {
		return dst, err
	}
	return dst, nil
}

// logAppend charges the log manager and converts its physical I/O count
// into log-disk writes.
func (a *stack) logAppend(dst []core.PhysIO, txn int, objSize int, pg storage.PageID) ([]core.PhysIO, error) {
	n, err := a.log.Append(txn, objSize, pg)
	if err != nil {
		return dst, err
	}
	for i := 0; i < n; i++ {
		dst = append(dst, core.LogWrite())
	}
	return dst, nil
}

// dirtyLog is the tail every page-level write shares: each of pages is
// dirtied (and re-fetched if evicted meanwhile) and a change of size bytes
// is logged against it.
func (a *stack) dirtyLog(ios []core.PhysIO, txn, size int, pages ...storage.PageID) ([]core.PhysIO, error) {
	var err error
	for _, pg := range pages {
		if ios, err = a.ensureDirty(ios, pg); err != nil {
			return nil, err
		}
		if ios, err = a.logAppend(ios, txn, size, pg); err != nil {
			return nil, err
		}
	}
	return ios, nil
}

// place puts o on a page through the clustering policy and journals the
// pages that dirtied: one log record per page, sized by the object (a
// split's extra page is the paper's "extra log record").
func (a *stack) place(ios []core.PhysIO, txn int, o *model.Object) ([]core.PhysIO, error) {
	pl, err := a.clust.PlaceNew(o)
	if err != nil {
		return nil, err
	}
	return a.dirtyLog(append(ios, pl.IOs...), txn, o.Size, pl.DirtyPages...)
}

// create is the tail of every object-producing write: the new object o is
// placed, the page of each surviving object in linked — whose relationship
// list gained o — is journaled, and the workload source learns of o so
// later operations can target it.
func (a *stack) create(ios []core.PhysIO, txn int, o *model.Object, linked ...model.ObjectID) ([]core.PhysIO, error) {
	ios, err := a.place(ios, txn, o)
	if err != nil {
		return nil, err
	}
	for _, id := range linked {
		lo := a.graph.Object(id)
		if lo == nil {
			continue // deleted between generation and execution
		}
		if ios, err = a.dirtyLog(ios, txn, lo.Size, a.store.PageOf(id)); err != nil {
			return nil, err
		}
	}
	a.gen.NoteCreated(o.ID, o.Type)
	return ios, nil
}

// relink is the tail of every restructuring write: run-time reclustering
// runs on o, whose structure changed; the pages it dirtied (o's own page
// when nothing moved) are journaled, then the page of other, the far end of
// the changed link.
func (a *stack) relink(ios []core.PhysIO, txn int, o, other *model.Object) ([]core.PhysIO, error) {
	pl, err := a.clust.Recluster(o)
	if err != nil {
		return nil, err
	}
	dirty := pl.DirtyPages
	if len(dirty) == 0 {
		dirty = []storage.PageID{a.store.PageOf(o.ID)}
	}
	if ios, err = a.dirtyLog(append(ios, pl.IOs...), txn, o.Size, dirty...); err != nil {
		return nil, err
	}
	return a.dirtyLog(ios, txn, other.Size, a.store.PageOf(other.ID))
}

// unplace takes o off its page: the page is journaled, the clusterer's
// access-pattern feed hears of the removal first, then the slot is freed.
func (a *stack) unplace(ios []core.PhysIO, txn int, o *model.Object) ([]core.PhysIO, error) {
	ios, err := a.dirtyLog(ios, txn, o.Size, a.store.PageOf(o.ID))
	if err != nil {
		return nil, err
	}
	if a.obsv != nil {
		a.obsv.NoteRemoved(o.ID)
	}
	return ios, a.store.Remove(o.ID)
}

// remove is the tail of every deleting write: o comes off its page and out
// of the graph, keeping placed objects == live objects.
func (a *stack) remove(ios []core.PhysIO, txn int, o *model.Object) ([]core.PhysIO, error) {
	ios, err := a.unplace(ios, txn, o)
	if err != nil {
		return nil, err
	}
	return ios, a.graph.DeleteObject(o.ID)
}

func (a *stack) execInsert(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	parent := req.AttachTo
	ios, err := a.readObject(nil, parent, true, true)
	if err != nil {
		return nil, 0, err
	}
	if a.graph.Object(parent) == nil {
		return ios, 1, nil // composite deleted before the insert landed
	}
	a.nameSeq++
	o, err := a.graph.NewObject(fmt.Sprintf("n%d", a.nameSeq), 1, req.NewType)
	if err != nil {
		return nil, 0, err
	}
	if err := a.graph.Attach(parent, o.ID); err != nil {
		return nil, 0, err
	}
	// The composite's component list changed too.
	if ios, err = a.create(ios, txn, o, parent); err != nil {
		return nil, 0, err
	}
	return ios, 2, nil
}

func (a *stack) execUpdate(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	o := a.graph.Object(req.Target)
	if o == nil {
		return ios, 1, nil // deleted before the update landed
	}
	if ios, err = a.dirtyLog(ios, txn, o.Size, a.store.PageOf(req.Target)); err != nil {
		return nil, 0, err
	}
	return ios, 1, nil
}

// execStructUpdate re-links Target under AttachTo (or detaches it if the
// link already exists) and runs the run-time reclustering algorithm on the
// restructured object.
func (a *stack) execStructUpdate(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	ios, err = a.readObject(ios, req.AttachTo, false, true)
	if err != nil {
		return nil, 0, err
	}

	o := a.graph.Object(req.Target)
	parent := a.graph.Object(req.AttachTo)
	if o == nil || parent == nil {
		return ios, 2, nil // an end was deleted before the relink landed
	}
	if req.Target == req.AttachTo {
		// Degenerate draw; treat as a plain update.
		return a.execUpdate(txn, req)
	}
	err = a.graph.Attach(parent.ID, o.ID)
	if err == model.ErrDuplicateLink {
		err = a.graph.Detach(parent.ID, o.ID)
	}
	if err != nil {
		return nil, 0, err
	}
	// The composite's component list changed as well.
	if ios, err = a.relink(ios, txn, o, parent); err != nil {
		return nil, 0, err
	}
	return ios, 2, nil
}

// execScan performs a batch-tool sweep: every target is read without
// prefetching and without asserting structural relevance to the buffer
// manager.
func (a *stack) execScan(req workload.Op) ([]core.PhysIO, int, error) {
	var ios []core.PhysIO
	var err error
	for _, id := range req.Targets {
		if ios, err = a.readObject(ios, id, false, false); err != nil {
			return nil, 0, err
		}
	}
	return ios, len(req.Targets), nil
}

// execCheckout materializes the full two-level hierarchy under Target: the
// root, every component, and every component's component — the expensive
// "loading a large object hierarchy into memory" the paper's introduction
// motivates. Prefetching fires per touched composite.
func (a *stack) execCheckout(req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	logical := 1
	root := a.graph.Object(req.Target)
	if root == nil {
		return ios, logical, nil
	}
	blocks := append(a.blockBuf[:0], root.Components...)
	a.blockBuf = blocks
	for _, b := range blocks {
		if ios, err = a.readObject(ios, b, true, true); err != nil {
			return nil, 0, err
		}
		logical++
		bo := a.graph.Object(b)
		if bo == nil {
			continue
		}
		leaves := append(a.leafBuf[:0], bo.Components...)
		a.leafBuf = leaves
		for _, l := range leaves {
			if ios, err = a.readObject(ios, l, false, true); err != nil {
				return nil, 0, err
			}
			logical++
		}
	}
	return ios, logical, nil
}

// execDelete removes a leaf object: the page holding it is read, the
// object comes off its page (the page is dirtied and the change logged),
// and the graph unlinks it. Objects that still anchor structure cannot be
// deleted; the transaction degrades to a plain update, the way a real tool
// would fail the delete and fall back to marking the object obsolete.
func (a *stack) execDelete(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	o := a.graph.Object(req.Target)
	if o == nil {
		// Deleted by an earlier transaction between generation and
		// execution; nothing to do but account the lookup attempt.
		return nil, 1, nil
	}
	if len(o.Components) > 0 || len(o.Descendants) > 0 {
		return a.execUpdate(txn, req)
	}
	ios, err := a.readObject(nil, req.Target, false, false)
	if err != nil {
		return nil, 0, err
	}
	if ios, err = a.remove(ios, txn, o); err != nil {
		return nil, 0, err
	}
	return ios, 1, nil
}

// execDerive checks in a new version of Target.
func (a *stack) execDerive(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	if a.graph.Object(req.Target) == nil {
		return ios, 1, nil // ancestor deleted before the checkin landed
	}
	o, err := a.graph.Derive(req.Target)
	if err != nil {
		return nil, 0, err
	}
	// The ancestor's descendant list changed.
	if ios, err = a.create(ios, txn, o, req.Target); err != nil {
		return nil, 0, err
	}
	return ios, 2, nil
}
