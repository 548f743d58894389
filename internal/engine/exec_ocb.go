package engine

import (
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/workload"
)

// OCB operation execution. All four kinds are reads: set-oriented scans
// share execScan (exec.go), the three traversal kinds live here. Scans and
// stochastic walks arrive with their target lists pre-resolved in Txn.Targets;
// simple and hierarchy traversals expand deterministically from Txn.Target
// over the immutable object graph, so all four replay byte-identically from
// a recorded trace.

const (
	// digestOffset/digestPrime are the FNV-1a 64-bit constants; the digest
	// folds each logical read as (id<<1 | foundBit).
	digestOffset = 0xcbf29ce484222325
	digestPrime  = 0x100000001b3

	// ocbVisitCap bounds the objects one simple traversal touches: shared
	// subtrees in a dense configuration DAG could otherwise make a single
	// transaction arbitrarily large.
	ocbVisitCap = 512

	// ocbChainCap bounds hierarchy-traversal chain walks. Generated chains
	// are short (VersionChainMax); the cap is pure defense against graph
	// corruption looping the walk.
	ocbChainCap = 64
)

// ocbFrame is one DFS stack entry of a simple traversal.
type ocbFrame struct {
	id    model.ObjectID
	depth int
}

// foldRead folds one logical read into the execution-order digest.
func (a *stack) foldRead(id model.ObjectID, found bool) {
	x := uint64(id) << 1
	if found {
		x |= 1
	}
	a.digest = (a.digest ^ x) * digestPrime
}

// visitBits sizes readSubtree's visited set: 1<<visitBits slots, at least
// twice ocbVisitCap (the conversion below fails to compile otherwise), so
// the table is never more than half full and a linear probe stays short.
const (
	visitBits  = 10
	visitSlots = 1 << visitBits
	_          = uint(visitSlots - 2*ocbVisitCap)
)

// visitSet is readSubtree's visited set: an open-addressed table of
// visitSlots slots, each stamped with the traversal that marked it. A
// slot stamped by an earlier traversal reads as empty, so a reset is one
// increment whatever the previous traversal marked, and the set's memory is
// bounded by ocbVisitCap whatever the database's size.
type visitSet struct {
	slots [visitSlots]visitSlot
	epoch uint32
}

type visitSlot struct {
	id    model.ObjectID
	epoch uint32
}

// reset empties the set. The table is cleared for real only when the epoch
// wraps, once per 2^32 traversals.
func (s *visitSet) reset() {
	if s.epoch++; s.epoch == 0 {
		s.slots = [visitSlots]visitSlot{}
		s.epoch = 1
	}
}

// slot returns the index holding id, or the empty slot where it belongs.
// The table is never full, so the probe ends.
func (s *visitSet) slot(id model.ObjectID) int {
	i := int(uint32(id) * 0x9e3779b9 >> (32 - visitBits)) // Fibonacci hashing
	for {
		if sl := &s.slots[i]; sl.epoch != s.epoch || sl.id == id {
			return i
		}
		i = (i + 1) & (visitSlots - 1)
	}
}

// add marks id and reports whether it was new.
func (s *visitSet) add(id model.ObjectID) bool {
	sl := &s.slots[s.slot(id)]
	if sl.epoch == s.epoch {
		return false
	}
	*sl = visitSlot{id, s.epoch}
	return true
}

// has reports whether id is marked.
func (s *visitSet) has(id model.ObjectID) bool {
	return s.slots[s.slot(id)].epoch == s.epoch
}

// readSubtree reads root and then the configuration subtree under it:
// depth-first along Components in slice order (deterministic), at most
// maxDepth levels and ocbVisitCap objects, the visited set a.seen keeping
// shared subobjects from being re-read. a.visitBuf holds the objects read,
// in discovery order, and a.seen holds exactly those on every return.
func (a *stack) readSubtree(root model.ObjectID, maxDepth int, boost bool) ([]core.PhysIO, int, error) {
	if a.seen == nil {
		a.seen = new(visitSet)
	}
	a.seen.reset()
	a.seen.add(root)
	a.visitBuf = append(a.visitBuf[:0], root)
	ios, err := a.readObject(a.iosBuf[:0], root, true, boost)
	if err != nil {
		return nil, 0, err
	}
	if a.graph.Object(root) == nil || maxDepth <= 0 {
		return ios, 1, nil
	}
	a.walkBuf = append(a.walkBuf[:0], ocbFrame{root, 0})
	for len(a.walkBuf) > 0 && len(a.visitBuf) < ocbVisitCap {
		f := a.walkBuf[len(a.walkBuf)-1]
		a.walkBuf = a.walkBuf[:len(a.walkBuf)-1]
		if f.depth >= maxDepth {
			continue
		}
		o := a.graph.Object(f.id)
		if o == nil {
			continue
		}
		for _, c := range o.Components() {
			if !a.seen.add(c) {
				continue
			}
			a.visitBuf = append(a.visitBuf, c)
			if ios, err = a.readObject(ios, c, false, boost); err != nil {
				return nil, 0, err
			}
			a.walkBuf = append(a.walkBuf, ocbFrame{c, f.depth + 1})
			if len(a.visitBuf) >= ocbVisitCap {
				break
			}
		}
	}
	return ios, len(a.visitBuf), nil
}

// execOCBSimple performs a depth-bounded DFS along configuration references
// from the target — OCB's simple traversal.
func (a *stack) execOCBSimple(req workload.Op) ([]core.PhysIO, int, error) {
	return a.readSubtree(req.Target, a.ocbDepth, true)
}

// execOCBHierarchy walks the inheritance chain upward from the target —
// OCB's hierarchy traversal, following the links version derivation created.
func (a *stack) execOCBHierarchy(req workload.Op) ([]core.PhysIO, int, error) {
	ios := a.iosBuf[:0]
	var err error
	logical := 0
	cur := req.Target
	for step := 0; step < ocbChainCap && cur != model.NilObject; step++ {
		if ios, err = a.readObject(ios, cur, step == 0, true); err != nil {
			return nil, 0, err
		}
		logical++
		o := a.graph.Object(cur)
		if o == nil {
			break
		}
		cur = o.InheritsFrom
	}
	return ios, logical, nil
}

// execOCBPath reads the pre-resolved stochastic-traversal path in order.
// Prefetching fires on the walk's root, matching the navigation semantics of
// the OCT read queries.
func (a *stack) execOCBPath(req workload.Op) ([]core.PhysIO, int, error) {
	ios := a.iosBuf[:0]
	var err error
	for i, id := range req.Targets {
		if ios, err = a.readObject(ios, id, i == 0, true); err != nil {
			return nil, 0, err
		}
	}
	return ios, len(req.Targets), nil
}

// ocbSizeTable derives the payload-size-class byte table from the OCB mean
// object size: small is half the base, medium the base, large one and a
// half, floored at 32 bytes so a tiny scaled base still yields distinct
// placeable sizes. SizeUnspecified stays zero (= keep the current size).
func ocbSizeTable(baseSize int) [workload.NumSizeClasses]int {
	t := [workload.NumSizeClasses]int{
		workload.SizeSmall:  baseSize / 2,
		workload.SizeMedium: baseSize,
		workload.SizeLarge:  baseSize * 3 / 2,
	}
	for c := workload.SizeSmall; c < workload.NumSizeClasses; c++ {
		if t[c] < 32 {
			t[c] = 32
		}
	}
	return t
}

// sizeFor maps an operation's payload-size class to bytes, falling back to
// cur when the class is unspecified or the stack has no size table (OCT).
func (a *stack) sizeFor(c workload.SizeClass, cur int32) int32 {
	if c == workload.SizeUnspecified || a.sizeBytes[c] == 0 {
		return cur
	}
	return int32(a.sizeBytes[c])
}

// execOCBInsert creates a new instance of the pre-drawn class, reads and
// wires the pre-drawn reference targets (the new object is the composite;
// references point backwards in creation order, keeping the configuration
// graph acyclic), places it through the clustering policy under test, and
// journals every dirtied page. The source learns the new object via
// NoteCreated, so later operations can target it.
func (a *stack) execOCBInsert(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios := a.iosBuf[:0]
	var err error
	logical := 0
	for i, id := range req.Targets {
		if ios, err = a.readObject(ios, id, i == 0, true); err != nil {
			return nil, 0, err
		}
		logical++
	}
	o, err := a.graph.NewObject("", 1, req.NewType)
	if err != nil {
		return nil, 0, err
	}
	o.Size = a.sizeFor(req.Size, o.Size)
	for _, id := range req.Targets {
		if a.graph.Object(id) == nil {
			continue // deleted between generation and execution
		}
		if err := a.graph.Attach(o.ID, id); err != nil && err != model.ErrDuplicateLink {
			return nil, 0, err
		}
	}
	// Each reference target gained a composite backlink.
	if ios, err = a.create(ios, txn, o, req.Targets...); err != nil {
		return nil, 0, err
	}
	return ios, logical + 1, nil
}

// execOCBDelete dismantles the configuration subtree under the target,
// bottom-up: members are collected in a bounded DFS (each one read — a
// delete touches what it removes), then deleted in reverse discovery order
// so components go before their composites. Members that still anchor
// structure are skipped: version ancestors (live Descendants), objects
// whose components survived, and objects shared with composites outside
// the subtree. If nothing is deletable the operation degrades to marking
// the root obsolete — a plain logged update — like a real tool failing the
// delete.
func (a *stack) execOCBDelete(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	// The subtree has at most ocbVisitCap members, so that depth is no bound.
	ios, logical, err := a.readSubtree(req.Target, ocbVisitCap, false)
	root := a.graph.Object(req.Target)
	if err != nil || root == nil {
		return ios, logical, err
	}
	deleted := 0
	for i := len(a.visitBuf) - 1; i >= 0; i-- {
		id := a.visitBuf[i]
		o := a.graph.Object(id)
		if o == nil || len(o.Components()) > 0 || len(o.Descendants()) > 0 {
			continue
		}
		if id != req.Target {
			shared := false
			for _, comp := range o.Composites() {
				if !a.seen.has(comp) {
					shared = true
					break
				}
			}
			if shared {
				continue
			}
		}
		if ios, err = a.remove(ios, txn, o); err != nil {
			return nil, 0, err
		}
		deleted++
	}
	if deleted == 0 {
		// Nothing deletable: mark the root obsolete instead.
		if ios, err = a.dirtyLog(ios, txn, int(root.Size), a.store.PageOf(req.Target)); err != nil {
			return nil, 0, err
		}
	}
	return ios, logical, nil
}

// execOCBUpdate rewrites the target's attribute payload. A payload-size
// change means the object no longer fits its slot: it comes off its page
// and goes back through the placement policy, so updates churn physical
// clustering the way the full OCB intends. A same-size update dirties and
// journals the page in place.
func (a *stack) execOCBUpdate(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(a.iosBuf[:0], req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	o := a.graph.Object(req.Target)
	if o == nil {
		return ios, 1, nil // deleted before the update landed
	}
	if newSize := a.sizeFor(req.Size, o.Size); newSize != o.Size {
		if ios, err = a.unplace(ios, txn, o); err != nil {
			return nil, 0, err
		}
		o.Size = newSize
		ios, err = a.place(ios, txn, o)
	} else {
		ios, err = a.dirtyLog(ios, txn, int(o.Size), a.store.PageOf(req.Target))
	}
	if err != nil {
		return nil, 0, err
	}
	return ios, 1, nil
}

// execOCBRewire redirects the target's first configuration reference to the
// pre-drawn (earlier-created, so acyclicity is preserved) AttachTo object
// and runs run-time reclustering on the restructured target — the
// graph-churning operation dynamic clustering policies exist for.
func (a *stack) execOCBRewire(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(a.iosBuf[:0], req.Target, true, true)
	if err != nil {
		return nil, 0, err
	}
	ios, err = a.readObject(ios, req.AttachTo, false, true)
	if err != nil {
		return nil, 0, err
	}
	o := a.graph.Object(req.Target)
	to := a.graph.Object(req.AttachTo)
	if o == nil || to == nil {
		return ios, 2, nil // an end was deleted before the rewire landed
	}
	if req.Target == req.AttachTo {
		return a.execOCBUpdate(txn, req)
	}
	if len(o.Components()) > 0 {
		if err := a.graph.Detach(o.ID, o.Components()[0]); err != nil {
			return nil, 0, err
		}
	}
	err = a.graph.Attach(o.ID, to.ID)
	if err == model.ErrDuplicateLink {
		err = nil // already wired; the detach alone churned the graph
	}
	if err != nil {
		return nil, 0, err
	}
	// The new reference target's composite backlink changed.
	if ios, err = a.relink(ios, txn, o, to); err != nil {
		return nil, 0, err
	}
	return ios, 2, nil
}
