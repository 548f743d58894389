package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/sim"
	"oodb/internal/trace"
	"oodb/internal/workload"
)

// Engine is one simulated DBMS server plus its client workstations: the
// discrete-event driver over the shared world. It owns the timed layer
// (calendar, stations, users, transactions); all functional work goes
// through the AccessLayer seam.
type Engine struct {
	*world

	tuner  core.PolicyTuner // clust's run-time tuning hook; nil if untunable
	gen    workload.Source
	access AccessLayer

	cpu     *sim.Station
	disks   []*sim.Station
	logDisk *sim.Station

	txnSeq int

	// adapt drives the phased-R/W and adaptive-clustering extensions; nil
	// when neither is configured.
	adapt *adaptiveState

	// remaining is each user's transactions left in the current session,
	// indexed by user number.
	remaining []int
	think     *rand.Rand
	started   bool

	// Trace record/replay on the logical transaction boundary.
	record *trace.Writer
	replay *trace.Reader

	metrics   Metrics
	issued    int
	completed int
	stopped   bool
}

// New builds the world (see buildWorld) over the serial pool and attaches
// the timed layer to it.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{}
	var err error
	// The attachments that can fail come first, so no error path is left
	// once the world holds an open storage backend.
	if cfg.Record != nil {
		if e.record, err = trace.NewWriter(cfg.Record); err != nil {
			return nil, err
		}
	}
	if cfg.Replay != nil {
		if e.replay, err = trace.NewReader(cfg.Replay); err != nil {
			return nil, err
		}
	}

	w, err := buildWorld(cfg, 1, serialPool)
	if err != nil {
		return nil, err
	}
	e.world = w
	e.tuner, _ = w.clust.(core.PolicyTuner)
	st := w.newStack(w.newGenerator("workload"), 0)
	e.access, e.gen = st, st.gen
	e.metrics.warmup = cfg.Warmup

	e.cpu = sim.NewStation(w.sim, "cpu", 1)
	for d := 0; d < cfg.Disks; d++ {
		e.disks = append(e.disks, sim.NewStation(w.sim, fmt.Sprintf("disk%d", d), 1))
	}
	e.logDisk = sim.NewStation(w.sim, "logdisk", 1)
	if len(cfg.PhasedRW) > 0 || cfg.AdaptiveClustering {
		e.adapt = newAdaptiveState(cfg)
	}
	return e, nil
}

// serialPool is the newPool of the single-goroutine drivers. One pool, one
// global policy: victim order is observable behavior on the simulated path,
// and a single goroutine has no use for shard locks.
func serialPool(w *world) (framePool, error) {
	// The stream is created lazily so deterministic replays are unaffected
	// unless a stochastic policy actually draws from it.
	policy, err := w.newPolicy(w.cfg.Buffers, func() *rand.Rand { return w.sim.Stream("random-replacement") })
	if err != nil {
		return nil, err
	}
	return buffer.NewPool(w.cfg.Buffers, policy), nil
}

// Run simulates until the configured number of transactions has completed
// and returns the results.
func (e *Engine) Run() (Results, error) {
	e.start()
	e.sim.RunAll()
	return e.finish()
}

// RunN steps the simulation until n more transactions complete (or the
// event calendar drains, whichever is first) and returns how many
// completed. It leaves the engine mid-run: the macro-benchmark and the
// future server loop use it to drive bounded slices of work; call Run or
// RunN again to continue.
func (e *Engine) RunN(n int) (int, error) {
	e.start()
	target := e.completed + n
	for e.completed < target && e.sim.Step() {
	}
	if e.metrics.err != nil {
		return 0, e.metrics.err
	}
	return n - (target - e.completed), nil
}

// EventsExecuted returns the number of kernel events executed so far.
func (e *Engine) EventsExecuted() uint64 { return e.sim.Executed() }

// finish flushes the trace recorder and renders results.
func (e *Engine) finish() (Results, error) {
	if e.record != nil {
		if err := e.record.Flush(); err != nil && e.metrics.err == nil {
			e.metrics.err = fmt.Errorf("engine: flushing trace: %w", err)
		}
	}
	if e.metrics.err != nil {
		return Results{}, e.metrics.err
	}
	return e.results(), nil
}

// start schedules the initial user wakes. It is idempotent, so RunN can
// call it on every slice.
func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	e.think = e.sim.Stream("think")
	e.remaining = make([]int, e.cfg.Users)
	for u := range e.remaining {
		e.scheduleWake(u, sim.Exp(e.think, e.thinkMean()))
	}
}

// thinkMean is the current mean think time. During a configured flash crowd
// — transactions [FlashAt, FlashAt+FlashLen) — every user's think time
// collapses by FlashFactor, modeling the whole population converging on the
// system at once. The draw count is unchanged (one exponential per wake), so
// a run with no flash configured is byte-identical to the pre-flash engine.
func (e *Engine) thinkMean() float64 {
	if e.cfg.FlashFactor > 1 && e.cfg.FlashLen > 0 &&
		e.issued >= e.cfg.FlashAt && e.issued < e.cfg.FlashAt+e.cfg.FlashLen {
		return e.cfg.ThinkTime / e.cfg.FlashFactor
	}
	return e.cfg.ThinkTime
}

// scheduleWake schedules user u's next wake after delay.
func (e *Engine) scheduleWake(u int, delay sim.Time) {
	e.sim.After(delay, func() { e.wakeUser(u) })
}

// wakeUser runs one step of a user's think/submit loop. Sessions group 5–20
// transactions; the session boundary draws a fresh session length, matching
// the paper's session model.
func (e *Engine) wakeUser(u int) {
	if e.stopped {
		return
	}
	if e.remaining[u] == 0 {
		e.remaining[u] = e.gen.SessionLength()
	}
	if e.issued >= e.cfg.Transactions+e.cfg.Warmup {
		e.stopped = true
		return
	}
	e.issued++
	e.remaining[u]--
	e.startTxn(func() {
		e.completed++
		e.scheduleWake(u, sim.Exp(e.think, e.thinkMean()))
	})
}

// nextTxn draws the next transaction request: from the replay stream when
// one is configured, otherwise from the generator (teeing into the trace
// recorder when recording). Replayed scan lists are copied out of the
// reader's scratch buffer — the request outlives this call when the
// transaction queues on locks.
func (e *Engine) nextTxn() (workload.Op, error) {
	if e.replay != nil {
		var t workload.Op
		switch err := e.replay.Next(&t); {
		case errors.Is(err, io.EOF):
			return t, fmt.Errorf("engine: trace exhausted after %d transactions (run needs %d)",
				e.replay.Count(), e.cfg.Transactions+e.cfg.Warmup)
		case err != nil:
			return t, err
		}
		if len(t.Targets) > 0 {
			t.Targets = append([]model.ObjectID(nil), t.Targets...)
		}
		return t, nil
	}
	t := e.gen.Next()
	if e.record != nil {
		if err := e.record.Write(t); err != nil {
			return t, fmt.Errorf("engine: recording trace: %w", err)
		}
	}
	return t, nil
}

// startTxn executes one transaction: the functional layer runs atomically
// now (determining the logical operations and the physical I/O program),
// then the timed layer plays CPU service followed by each physical I/O
// through the disk queues; done fires when the transaction completes.
func (e *Engine) startTxn(done func()) {
	t0 := e.sim.Now()
	txn := e.txnSeq
	e.txnSeq++
	if e.adapt != nil {
		if rw := e.adapt.phaseRatio(txn); rw > 0 {
			if !e.gen.SetReadWriteRatio(rw) {
				// The source cannot honor the requested mix (e.g. a read-only
				// OCB stream); surface the refusal instead of silently
				// pretending the phase took effect.
				e.metrics.ratioIgnored++
			}
		}
	}
	req, err := e.nextTxn()
	if err != nil {
		e.fail(err)
		return
	}
	if e.adapt != nil && e.cfg.AdaptiveClustering && e.tuner != nil {
		if observed := e.adapt.observe(req.Kind.IsWrite()); observed >= 0 {
			if pol := e.adapt.policyFor(observed); pol != e.tuner.CurrentPolicy() {
				e.tuner.SetPolicy(pol)
				e.adapt.Switches++
			}
		}
	}

	// Concurrency control first: the transaction queues on conflicting
	// object locks, and that queueing delay is part of its response time.
	e.withLocks(txn, lockSet(req), func() {
		e.runLocked(txn, req, t0, done)
	})
}

// runLocked executes a transaction that holds its locks.
func (e *Engine) runLocked(txn int, req workload.Op, t0 sim.Time, done func()) {
	res, err := e.transact(e.access, txn, req)
	if err == nil {
		err = e.awaitDurable()
	}
	if err != nil {
		e.fail(err)
		return
	}

	ios := res.IOs
	e.metrics.note(req.Kind, res)
	// Background prefetch I/Os load the disks (and are accounted) but do
	// not serialize into this transaction's response path. Copied because
	// res.Background is scratch-backed and the disk callbacks outlive it.
	bg := append([]core.PhysIO(nil), res.Background...)
	for _, io := range bg {
		e.diskFor(io).Request(diskServiceTime, nil)
	}

	cpuTime := cpuPerLogicalOp*float64(res.Logical) + cpuPerPhysIO*float64(len(ios)+len(bg))
	e.cpu.Request(cpuTime, func() {
		e.playIOs(ios, 0, func() {
			if e.locks != nil {
				e.locks.ReleaseAll(txn)
			}
			e.metrics.complete(req.Kind, e.sim.Now()-t0)
			done()
		})
	})
}

func (e *Engine) fail(err error) {
	if e.metrics.err == nil {
		e.metrics.err = err
	}
	e.stopped = true
}

// diskFor routes an I/O: data pages hash across the data disks, log writes
// go to the dedicated log disk.
func (e *Engine) diskFor(io core.PhysIO) *sim.Station {
	if io.Log {
		return e.logDisk
	}
	return e.disks[int(io.Page)%len(e.disks)]
}

// playIOs sends each physical I/O to its disk in order.
func (e *Engine) playIOs(ios []core.PhysIO, idx int, done func()) {
	if idx >= len(ios) {
		done()
		return
	}
	e.diskFor(ios[idx]).Request(diskServiceTime, func() { e.playIOs(ios, idx+1, done) })
}
