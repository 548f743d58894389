package engine

import (
	"cmp"
	"slices"

	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/workload"
)

// appendLockSet appends to out, which the caller passes empty, the locks
// transaction req must hold, in ascending object order (the global
// acquisition order that makes the protocol deadlock-free) with each
// object once, in the strongest mode requested for it. Navigation
// queries lock the root of the navigated structure — the paper's "object
// and composite object" granularity, a hierarchical lock covering the
// expansion — while writes take exclusive locks on every object they
// mutate. Only the serial driver locks; it passes per-user scratch, so
// building a lock set allocates nothing once the scratch has grown, and
// the set it gets back is the one it hands to lock.Manager.Release.
func appendLockSet(out []lock.Request, req workload.Op) []lock.Request {
	add := func(obj model.ObjectID, mode lock.Mode) {
		if obj != model.NilObject {
			out = append(out, lock.Request{Obj: obj, Mode: mode})
		}
	}
	switch req.Kind {
	case workload.QInsert:
		add(req.AttachTo, lock.Exclusive)
	case workload.QUpdate, workload.QDerive, workload.QDelete,
		workload.QOCBUpdate, workload.QOCBDelete:
		// An OCB delete dismantles the configuration subtree under its
		// target: the exclusive root lock covers the expansion.
		add(req.Target, lock.Exclusive)
	case workload.QStructUpdate, workload.QOCBRewire:
		add(req.Target, lock.Exclusive)
		add(req.AttachTo, lock.Exclusive)
	case workload.QOCBInsert:
		// Every reference target gains the new object as a composite.
		for _, id := range req.Targets {
			add(id, lock.Exclusive)
		}
	case workload.QScan, workload.QOCBScan, workload.QOCBStochastic:
		// OCB scans and stochastic walks carry their resolved target lists
		// in Targets; lock each target shared, like the OCT batch scan.
		for _, id := range req.Targets {
			add(id, lock.Shared)
		}
	default: // the OCT navigation reads and checkout, the OCB traversals
		add(req.Target, lock.Shared)
	}
	slices.SortFunc(out, func(a, b lock.Request) int { return cmp.Compare(a.Obj, b.Obj) })
	// Sorting put each object's requests side by side; keep one per object,
	// in the stronger mode.
	k := 0
	for _, r := range out {
		if k > 0 && out[k-1].Obj == r.Obj {
			out[k-1].Mode = max(out[k-1].Mode, r.Mode)
			continue
		}
		out[k] = r
		k++
	}
	return out[:k]
}
