package engine

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"

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

	// users holds each user's loop state, indexed by user number.
	users   []*user
	think   *rand.Rand
	started bool

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
	return newEngine(cfg, func() (*world, error) { return buildWorld(cfg, 1, serialPool) })
}

// newEngine attaches the timed layer to the world newWorld returns for cfg.
func newEngine(cfg Config, newWorld func() (*world, error)) (*Engine, error) {
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

	w, err := newWorld()
	if err != nil {
		return nil, err
	}
	e.world = w
	e.tuner, _ = w.clust.(core.PolicyTuner)
	st := w.newStack(w.newGenerator("workload"))
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

// Template is a constructed world kept so that every configuration sharing
// its world key runs on a clone of it instead of building its own. A clone
// starts in exactly the state a fresh build of its configuration would:
// the same placement, the same warm pool in the same replacement order,
// zeroed statistics. A world that cannot be cloned (see world.clone) is
// built afresh for every engine, as New would.
type Template struct {
	key WorldKey
	// mu is held shared while a clone copies w, and for good by Take, so
	// the world is never run while it is being copied.
	mu sync.RWMutex
	w  *world // nil once taken
}

// errTemplateTaken is returned by a Template whose world Take handed out.
var errTemplateTaken = errors.New("engine: template already taken")

// NewTemplate validates cfg and builds its world on the serial pool.
func NewTemplate(cfg Config) (*Template, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w, err := buildWorld(cfg, 1, serialPool)
	if err != nil {
		return nil, err
	}
	return &Template{key: cfg.WorldKey(), w: w}, nil
}

// Cloneable reports whether Engine runs on clones; if not, each call
// builds its world afresh. It is false once the template is taken.
func (t *Template) Cloneable() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.w != nil && t.w.cloneable()
}

// Engine returns an engine for cfg on a clone of the template's world; cfg
// must share the template's world key. It is safe for concurrent use.
func (t *Template) Engine(cfg Config) (*Engine, error) {
	if err := t.fits(cfg); err != nil {
		return nil, err
	}
	t.mu.RLock()
	if t.w == nil {
		t.mu.RUnlock()
		return nil, errTemplateTaken
	}
	w, ok := t.w.clone(cfg)
	t.mu.RUnlock()
	if !ok {
		return New(cfg)
	}
	return newEngine(cfg, func() (*world, error) { return w, nil })
}

// Take returns an engine for cfg on the template's own world, once every
// clone in progress is done; cfg must share the template's world key. The
// template is spent: later calls to Engine or Take fail.
func (t *Template) Take(cfg Config) (*Engine, error) {
	if err := t.fits(cfg); err != nil {
		return nil, err
	}
	t.mu.Lock()
	w := t.w
	t.w = nil
	t.mu.Unlock()
	if w == nil {
		return nil, errTemplateTaken
	}
	w.runAs(cfg)
	return newEngine(cfg, func() (*world, error) { return w, nil })
}

// fits refuses a configuration that builds another world than t's.
func (t *Template) fits(cfg Config) error {
	if cfg.WorldKey() != t.key {
		return errors.New("engine: configuration builds another world than the template's")
	}
	return nil
}

// serialPool is the newPool of the single-goroutine drivers. One pool, one
// global policy: victim order is observable behavior on the simulated path,
// and a single goroutine has no use for shard locks.
func serialPool(w *world) (framePool, error) {
	// The stream is created lazily so deterministic replays are unaffected
	// unless a stochastic policy actually draws from it.
	policy, err := w.newPolicy(w.cfg.Buffers, w.replacementStream)
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

// user is one closed-loop user: think, submit a transaction, wait for it,
// think again. The loop is closed, so a user has at most one transaction in
// flight, and its state lives here from submission to completion: the
// request, its lock set and cursor, and its physical I/O program and
// cursor. The continuations that resume it are bound once in start, so no
// step of a transaction schedules a fresh closure.
type user struct {
	e         *Engine
	remaining int // transactions left in the current session

	txn   int
	req   workload.Op
	t0    sim.Time
	locks []lockRequest
	lock  int // next lock to acquire
	ios   []core.PhysIO
	io    int // next I/O to issue

	wake    func() // think time over: submit the next transaction
	granted func() // a queued lock was granted: acquire the rest
	step    func() // CPU or disk service done: issue the next I/O
}

// start binds each user's continuations and schedules the initial wakes.
// It is idempotent, so RunN can call it on every slice.
func (e *Engine) start() {
	if e.started {
		return
	}
	e.started = true
	e.think = e.sim.Stream("think")
	e.users = make([]*user, e.cfg.Users)
	for i := range e.users {
		u := &user{e: e}
		u.wake, u.granted, u.step = u.onWake, u.onGrant, u.playIO
		e.users[i] = u
		e.scheduleWake(u)
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

// scheduleWake draws u's think time and schedules its next wake.
func (e *Engine) scheduleWake(u *user) {
	e.sim.After(sim.Exp(e.think, e.thinkMean()), u.wake)
}

// onWake runs one step of the user's think/submit loop. Sessions group 5–20
// transactions; the session boundary draws a fresh session length, matching
// the paper's session model.
func (u *user) onWake() {
	e := u.e
	if e.stopped {
		return
	}
	if u.remaining == 0 {
		u.remaining = e.gen.SessionLength()
	}
	if e.issued >= e.cfg.Transactions+e.cfg.Warmup {
		e.stopped = true
		return
	}
	e.issued++
	u.remaining--
	e.startTxn(u)
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

// startTxn submits u's next transaction: it takes its object locks, then
// the functional layer runs atomically (determining the logical operations
// and the physical I/O program), then the timed layer plays CPU service
// followed by each physical I/O through the disk queues.
func (e *Engine) startTxn(u *user) {
	u.t0, u.txn = e.sim.Now(), e.txnSeq
	e.txnSeq++
	if e.adapt != nil {
		if rw := e.adapt.phaseRatio(u.txn); rw > 0 {
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

	u.req = req

	// Concurrency control first: the transaction queues on conflicting
	// object locks, and that queueing delay is part of its response time.
	u.locks, u.lock = u.locks[:0], 0
	if e.locks != nil {
		u.locks = appendLockSet(u.locks, req)
	}
	u.acquire()
}

// acquire takes u's remaining locks in order, then runs the transaction. A
// lock wait suspends the chain until the manager fires u.granted, so
// queueing delay lands in the transaction's response time.
func (u *user) acquire() {
	e := u.e
	for ; u.lock < len(u.locks); u.lock++ {
		lr := u.locks[u.lock]
		granted, err := e.locks.Acquire(u.txn, lr.obj, lr.mode, u.granted)
		if err != nil {
			e.fail(err)
			return
		}
		if !granted {
			return // resumes via onGrant
		}
	}
	e.runLocked(u)
}

// onGrant resumes u's lock chain after the lock it queued on. It runs
// inside the releasing transaction's completion event, which is a valid
// scheduling context.
func (u *user) onGrant() {
	u.lock++
	u.acquire()
}

// runLocked executes u's transaction, which holds its locks.
func (e *Engine) runLocked(u *user) {
	res, err := e.transact(e.access, u.txn, u.req)
	if err == nil {
		err = e.awaitDurable()
	}
	if err != nil {
		e.fail(err)
		return
	}

	e.metrics.note(u.req.Kind, res)
	// Background prefetch I/Os load the disks (and are accounted) but do
	// not serialize into this transaction's response path.
	for _, io := range res.Background {
		e.diskFor(io).Request(diskServiceTime, nil)
	}
	// The I/O program plays out across other transactions' Execute calls,
	// so it is copied out of the access layer's buffer into u's own.
	u.ios = append(u.ios[:0], res.IOs...)
	u.io = 0

	cpuTime := cpuPerLogicalOp*float64(res.Logical) + cpuPerPhysIO*float64(len(u.ios)+len(res.Background))
	e.cpu.Request(cpuTime, u.step)
}

// playIO sends u's next physical I/O to its disk; once the program is
// played out the transaction completes, releasing its locks, and u thinks.
func (u *user) playIO() {
	e := u.e
	if u.io < len(u.ios) {
		io := u.ios[u.io]
		u.io++
		e.diskFor(io).Request(diskServiceTime, u.step)
		return
	}
	if e.locks != nil {
		e.locks.ReleaseAll(u.txn)
	}
	e.metrics.complete(u.req.Kind, e.sim.Now()-u.t0)
	e.completed++
	e.scheduleWake(u)
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
