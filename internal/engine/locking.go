package engine

import (
	"cmp"
	"slices"

	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/workload"
)

// lockRequest is one object/mode pair a transaction needs.
type lockRequest struct {
	obj  model.ObjectID
	mode lock.Mode
}

// appendLockSet appends to out, which the caller passes empty, the locks
// transaction req must hold, in ascending object order (the global
// acquisition order that makes the protocol deadlock-free). Navigation
// queries lock the root of the navigated structure — the paper's "object
// and composite object" granularity, a hierarchical lock covering the
// expansion — while writes take exclusive locks on every object they
// mutate. Both drivers pass per-user or per-session scratch, so building a
// lock set allocates nothing once the scratch has grown.
func appendLockSet(out []lockRequest, req workload.Op) []lockRequest {
	add := func(obj model.ObjectID, mode lock.Mode) {
		if obj == model.NilObject {
			return
		}
		for i := range out {
			if out[i].obj == obj {
				if mode > out[i].mode {
					out[i].mode = mode
				}
				return
			}
		}
		out = append(out, lockRequest{obj, mode})
	}
	switch req.Kind {
	case workload.QInsert:
		add(req.AttachTo, lock.Exclusive)
	case workload.QUpdate, workload.QDerive, workload.QDelete:
		add(req.Target, lock.Exclusive)
	case workload.QStructUpdate:
		add(req.Target, lock.Exclusive)
		add(req.AttachTo, lock.Exclusive)
	case workload.QScan, workload.QOCBScan, workload.QOCBStochastic:
		// OCB scans and stochastic walks carry their resolved target lists
		// in Scan; lock each target shared, like the OCT batch scan.
		for _, id := range req.Targets {
			add(id, lock.Shared)
		}
	default: // the six read query types
		add(req.Target, lock.Shared)
	}
	slices.SortFunc(out, func(a, b lockRequest) int { return cmp.Compare(a.obj, b.obj) })
	return out
}
