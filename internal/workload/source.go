package workload

import "oodb/internal/model"

// Source is the workload seam: the engine pulls transactions from a Source
// without knowing which workload family produced them. The OCT generator
// (Generator, this package) and the OCB generator (internal/ocb) both
// implement it.
//
// Implementations must draw all randomness from the *rand.Rand they were
// constructed with — the engine hands them a named kernel stream, so a run
// is a function of its seed — and must resolve any randomized
// target lists at generation time (into Op.Targets) so a recorded stream
// replays byte-identically.
type Source interface {
	// Next draws the next operation.
	Next() Op
	// SessionLength draws the number of transactions in a user session.
	SessionLength() int
	// NoteCreated tells the source an object was created during execution,
	// so later transactions can target it. Read-only sources ignore it.
	NoteCreated(id model.ObjectID, t model.TypeID)
	// SetReadWriteRatio adjusts the read/write mix mid-run (phased
	// workloads) and reports whether the change took effect. A source that
	// cannot honor the requested mix must return false — a silent no-op is
	// not an acceptable implementation — so callers can surface the
	// "unsupported" signal instead of believing the phase change happened.
	SetReadWriteRatio(rw float64) bool
}

var _ Source = (*Generator)(nil)
