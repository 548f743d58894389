package engine

import (
	"fmt"

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

// readSubtree reads root and then the configuration subtree under it:
// depth-first along Components in slice order (deterministic), at most
// maxDepth levels and ocbVisitCap objects, the visited set a.seen keeping
// shared subobjects from being re-read. a.visitBuf holds the objects read,
// in discovery order.
func (a *stack) readSubtree(root model.ObjectID, maxDepth int, boost bool) ([]core.PhysIO, int, error) {
	ios, err := a.readObject(nil, root, true, boost)
	if err != nil {
		return nil, 0, err
	}
	a.visitBuf = append(a.visitBuf[:0], root)
	if a.graph.Object(root) == nil || maxDepth <= 0 {
		return ios, 1, nil
	}
	if a.seen == nil {
		a.seen = make(map[model.ObjectID]bool, ocbVisitCap)
	}
	for k := range a.seen {
		delete(a.seen, k)
	}
	a.seen[root] = true
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
		for _, c := range o.Components {
			if a.seen[c] {
				continue
			}
			a.seen[c] = true
			if ios, err = a.readObject(ios, c, false, boost); err != nil {
				return nil, 0, err
			}
			a.visitBuf = append(a.visitBuf, c)
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
	var ios []core.PhysIO
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
	var ios []core.PhysIO
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
func (a *stack) sizeFor(c workload.SizeClass, cur int) int {
	if c == workload.SizeUnspecified || a.sizeBytes[c] == 0 {
		return cur
	}
	return a.sizeBytes[c]
}

// execOCBInsert creates a new instance of the pre-drawn class, reads and
// wires the pre-drawn reference targets (the new object is the composite;
// references point backwards in creation order, keeping the configuration
// graph acyclic), places it through the clustering policy under test, and
// journals every dirtied page. The source learns the new object via
// NoteCreated, so later operations can target it.
func (a *stack) execOCBInsert(txn int, req workload.Op) ([]core.PhysIO, int, error) {
	var ios []core.PhysIO
	var err error
	logical := 0
	for i, id := range req.Targets {
		if ios, err = a.readObject(ios, id, i == 0, true); err != nil {
			return nil, 0, err
		}
		logical++
	}
	a.nameSeq++
	o, err := a.graph.NewObject(fmt.Sprintf("n%d", a.nameSeq), 1, req.NewType)
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
		if o == nil || len(o.Components) > 0 || len(o.Descendants) > 0 {
			continue
		}
		if id != req.Target {
			shared := false
			for _, comp := range o.Composites {
				if !a.seen[comp] {
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
		if ios, err = a.dirtyLog(ios, txn, root.Size, a.store.PageOf(req.Target)); err != nil {
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
	ios, err := a.readObject(nil, req.Target, true, true)
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
		ios, err = a.dirtyLog(ios, txn, o.Size, a.store.PageOf(req.Target))
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
	ios, err := a.readObject(nil, req.Target, true, true)
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
	if len(o.Components) > 0 {
		if err := a.graph.Detach(o.ID, o.Components[0]); err != nil {
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
