// Package oracle implements the cross-policy differential oracle: record a
// logical transaction stream once, replay it under any two policy wirings,
// and assert that (a) the logical results are identical and (b) each run's
// physical accounting obeys the stack's conservation invariants.
//
// The equivalence half leans on a determinism argument. For a *read-only*
// stream shared locks never conflict, so each transaction executes
// synchronously at submission and the n-th submission consumes the n-th
// trace record — the execution order, and therefore the engine's
// logical-read digest, is independent of the policy wiring. Write streams
// can reorder execution through lock waits, so their equivalence gate
// additionally requires Locking to be disabled: without locks *every*
// transaction executes synchronously at submission, the replayed write
// sequence applies in trace order under any wiring, and both the
// logical-read digest and the end-of-run FinalStateDigest (the folded
// logical database: object identities, types, sizes, references,
// inheritance links) must agree across policies.
//
// The conservation half holds for any run, and write streams add their own
// invariants: the per-write placed-objects == live-objects check (counted
// by the access layer after every write) must report zero violations, and
// the end-of-run placement count must equal the live-object count.
package oracle

import (
	"bytes"
	"fmt"

	"oodb/internal/core"
	"oodb/internal/engine"
)

// Stream is a recorded logical transaction stream plus the baseline results
// of the run that recorded it.
type Stream struct {
	Data []byte
	Base engine.Results
}

// Record runs cfg while recording its logical transaction stream, returning
// the stream and the baseline results. Recording taps the generator output
// before any component reacts to it, so the baseline is byte-identical to
// an unrecorded run of cfg.
func Record(cfg engine.Config) (*Stream, error) {
	if cfg.Record != nil || cfg.Replay != nil {
		return nil, fmt.Errorf("oracle: config already records or replays a trace")
	}
	var buf bytes.Buffer
	cfg.Record = &buf
	e, err := engine.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	return &Stream{Data: buf.Bytes(), Base: res}, nil
}

// Replay drives cfg from the recorded stream instead of its generator. The
// caller varies the policy wiring (replacement, clustering, prefetch) while
// the logical inputs stay fixed.
func (s *Stream) Replay(cfg engine.Config) (engine.Results, error) {
	cfg.Record = nil
	cfg.Replay = bytes.NewReader(s.Data)
	e, err := engine.New(cfg)
	if err != nil {
		return engine.Results{}, err
	}
	return e.Run()
}

// CheckEquivalence asserts logical-result equivalence of two runs of the
// same recorded read-only stream: identical logical digests (every read saw
// the same object in the same order with the same found/not-found outcome)
// and identical logical totals. Physical measurements (response times, I/O
// counts, hit ratios) are expected to differ — that difference is the
// experiment.
func CheckEquivalence(base, other engine.Results) error {
	switch {
	case base.LogicalDigest != other.LogicalDigest:
		return fmt.Errorf("oracle: logical digest diverged: base %016x, other %016x",
			base.LogicalDigest, other.LogicalDigest)
	case base.LogicalOps != other.LogicalOps:
		return fmt.Errorf("oracle: logical op count diverged: base %d, other %d",
			base.LogicalOps, other.LogicalOps)
	case base.Completed != other.Completed:
		return fmt.Errorf("oracle: completed txn count diverged: base %d, other %d",
			base.Completed, other.Completed)
	case base.NotFoundReads != other.NotFoundReads:
		return fmt.Errorf("oracle: not-found read count diverged: base %d, other %d",
			base.NotFoundReads, other.NotFoundReads)
	}
	return nil
}

// CheckFinalState asserts end-of-run logical-database equivalence of two
// runs of the same recorded stream: identical final-state digests (every
// live object with its type, size, references, and inheritance link) and
// identical live-object counts. For a write stream this is the oracle's
// closure check — no matter how a policy placed, buffered, or clustered the
// writes, both runs must converge on the same logical database. It requires
// that execution happened in trace order (read-only stream, or a write
// stream with Locking disabled).
func CheckFinalState(base, other engine.Results) error {
	switch {
	case base.FinalStateDigest != other.FinalStateDigest:
		return fmt.Errorf("oracle: final-state digest diverged: base %016x, other %016x",
			base.FinalStateDigest, other.FinalStateDigest)
	case base.LiveObjects != other.LiveObjects:
		return fmt.Errorf("oracle: live-object count diverged: base %d, other %d",
			base.LiveObjects, other.LiveObjects)
	case base.WriteTxns != other.WriteTxns:
		return fmt.Errorf("oracle: write txn count diverged: base %d, other %d",
			base.WriteTxns, other.WriteTxns)
	}
	return nil
}

// CheckConservation asserts the physical-accounting invariants of one run.
//
// Unconditional invariants:
//   - buffer occupancy never exceeds the pool capacity;
//   - every lock acquired was granted and released, and none is held at end
//     of run (when locking is enabled).
//
// Read-mapping invariants — every logical read maps to exactly one buffer
// hit or one disk read, and every foreground write to a dirty-victim flush —
// additionally require that nothing else touches the pool: no prefetch (the
// within-database flavor issues extra pool accesses), no write transactions
// (writes re-access pages and inspect clustering candidates), and no warmup
// window (pool statistics cover the whole run, metrics skip warmup).
func CheckConservation(r engine.Results) error {
	if r.PoolResident > r.PoolCapacity {
		return fmt.Errorf("oracle: buffer occupancy %d exceeds pool capacity %d",
			r.PoolResident, r.PoolCapacity)
	}
	if r.ConservationViolations != 0 {
		return fmt.Errorf("oracle: %d writes left the placed-object count out of step with the live-object count",
			r.ConservationViolations)
	}
	if r.PlacedObjects != r.LiveObjects {
		return fmt.Errorf("oracle: %d placed objects != %d live objects at end of run",
			r.PlacedObjects, r.LiveObjects)
	}
	if r.Config.Locking {
		if r.Locks.Granted != r.Locks.Requests {
			return fmt.Errorf("oracle: lock grants %d != requests %d", r.Locks.Granted, r.Locks.Requests)
		}
		if r.Locks.Releases != r.Locks.Requests {
			return fmt.Errorf("oracle: lock releases %d != requests %d", r.Locks.Releases, r.Locks.Requests)
		}
		if r.LocksHeld != 0 {
			return fmt.Errorf("oracle: %d locks still held at end of run", r.LocksHeld)
		}
	}
	if r.Config.Prefetch == core.NoPrefetch && r.WriteTxns == 0 && r.Config.Warmup == 0 {
		if r.PhysReads != r.Pool.Misses {
			return fmt.Errorf("oracle: physical reads %d != pool misses %d", r.PhysReads, r.Pool.Misses)
		}
		if got := r.Pool.Hits + r.Pool.Misses; r.LogicalOps-r.NotFoundReads != got {
			return fmt.Errorf("oracle: logical reads %d (of which %d not found) != pool accesses %d",
				r.LogicalOps, r.NotFoundReads, got)
		}
		if r.PhysWrites != r.Pool.Flushes {
			return fmt.Errorf("oracle: physical writes %d != dirty-victim flushes %d",
				r.PhysWrites, r.Pool.Flushes)
		}
	}
	return nil
}
