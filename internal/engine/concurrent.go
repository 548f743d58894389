package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"oodb/internal/buffer"
	"oodb/internal/sim"
	"oodb/internal/stats"
	"oodb/internal/workload"
)

// Concurrent is the real-time counterpart of Engine: N session goroutines
// drive the same functional storage stack — one shared graph, storage
// backend, buffer pool and log — under actual parallel load, measuring
// wall-clock latency instead of simulated response time.
//
// Where Engine interleaves transactions on a discrete-event calendar (every
// run byte-identical), Concurrent interleaves them on the Go scheduler, so
// throughput and tail latency come from real contention on the shared
// structures: the structure guard and buffer.ConcurrentPool, which is the
// serial engine's buffer.Pool in locked, hash-routed shards (the same fault
// path; only victim order becomes shard-local). Each session reaches the
// pool through its own buffer.View, which serves a hit on a page it has
// seen resident without the shard lock and hands the touch to the shard's
// policy later, in order. The logical results stay checkable: the access
// layer's digest folds per session and combines order-independently, and a
// one-session run draws the identical transaction stream as the serial
// engine (same seed-derived "workload" stream, same session-length
// bookkeeping), so serial digest == 1-session concurrent digest is an
// oracle invariant the tests assert.
//
// Synchronization is one structure guard plus the log's prefix rule. Reads
// take mu.RLock and run concurrently — readObject and the traversals only
// read the graph and storage mapping, and the ConcurrentPool is internally
// synchronized. Writes take mu.Lock: placement, page splits, graph surgery,
// and the log are the simulator's single-threaded structures, serialized
// here. Deadlock freedom is one lock: the pool's shard locks nest inside
// the guard and never wait on it, so no wait can cycle.
//
// A read is one operation under the shared guard, and no writer mutates
// without the guard held exclusively, so the guard alone isolates it: a
// read sees every appended commit. Object locks stay the serial engine's
// model (Config.Locking), because there lock waits are part of the
// simulated response time.
//
// The guard covers a write up to its appended commit record and no further.
// A commit is appended (in the log, in guard order), then visible (the
// guard released: every read sees it, and other writers may commit on top
// of it), then acknowledged (world.awaitDurable returned: counted and
// latency-sampled). Under a persistent backend the flush happens outside
// the guard, so one designer's disk flush stalls no reader and no other
// writer — the paper gives logging its own buffer and disk for the same
// reason. No writer waits for another's flush: there is one log, appended
// in guard order, and a sync covers every byte before it, so a second
// writer of an object is acknowledged only after a flush that covers the
// first writer's commit, and whatever survives a crash is a prefix of the
// commit order (early lock release).
//
// Every layer's accounting reaches ConcurrentResults the way it reaches the
// serial engine's Results: world.report reads the pool, cluster, log and
// durability statistics off the shared structures once every session has
// stopped, and Run merges the sessions' own counts in.
type Concurrent struct {
	*world
	opt ConcurrentOptions

	pool *buffer.ConcurrentPool // the world's frames, typed for its invariants

	// mu is the structure guard: shared by readers (concurrent logical
	// reads), exclusive for writers (graph/storage/cluster/log mutation).
	mu sync.RWMutex

	sessions []*csession

	txnSeq    atomic.Int64 // transaction IDs, the log's bracket keys
	completed atomic.Int64 // transactions finished (warmup accounting)
	failed    atomic.Bool  // a session hit an error; the others stop too

	ran bool
}

// ConcurrentOptions shapes the load the session goroutines generate.
type ConcurrentOptions struct {
	// Sessions is the number of concurrent client sessions (goroutines).
	Sessions int

	// ThinkTime, when positive, runs the sessions closed-loop: each session
	// sleeps an exponentially distributed think time (this mean) between
	// its transactions, the paper's interactive-workstation model in wall
	// time. Zero with zero ArrivalRate means saturation: every session
	// submits back-to-back.
	ThinkTime time.Duration

	// ArrivalRate, when positive, runs the sessions open-loop at this many
	// transactions per second in aggregate: each session schedules intended
	// arrival instants (exponential gaps) and latency is measured from the
	// intended arrival, not the actual submit — a late-running system
	// accrues the queueing delay in its own tail instead of silently
	// suppressing arrivals (coordinated omission). Overrides ThinkTime.
	ArrivalRate float64
}

// Validate reports option errors.
func (o ConcurrentOptions) Validate() error {
	switch {
	case o.Sessions <= 0:
		return fmt.Errorf("engine: Sessions must be positive")
	case o.ThinkTime < 0:
		return fmt.Errorf("engine: ThinkTime must be non-negative")
	case !(o.ArrivalRate >= 0) || math.IsInf(o.ArrivalRate, 1):
		// A NaN rate compares false both ways and would run closed-loop.
		return fmt.Errorf("engine: ArrivalRate must be non-negative and finite, not %v", o.ArrivalRate)
	}
	return nil
}

// csession is one client session: its own generator stream, access-layer
// stack (scratch, digest), prefetcher, think RNG, and statistics — nothing
// here is shared, so the goroutine touches shared state only through the
// pool and the structure guard.
type csession struct {
	id    int
	stack *stack
	think *rand.Rand

	view *buffer.View // the session's handle on the pool, its stack's frames

	remaining int // transactions left in the current session burst

	hist stats.Hist  // latency in microseconds
	wait *stats.Hist // durable-commit wait in microseconds; nil on memory runs

	completed int
	ops       IOCounts
	kind      [workload.NumQueryKinds]int // transactions per query kind
	kindIOs   [workload.NumQueryKinds]int // their foreground physical I/Os
	kindHits  [workload.NumQueryKinds]int // their logical reads' buffer hits

	err error
}

// NewConcurrent builds the world (see buildWorld) over a sharded
// ConcurrentPool and attaches the session set to it. Both drivers call the
// same buildWorld, so the measured run starts on exactly the database the
// simulator's does. The world runs with cfg.Locking cleared — object locks
// are the serial driver's model — so the configuration the results report
// is the one that ran.
func NewConcurrent(cfg Config, opt ConcurrentOptions) (*Concurrent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if cfg.Record != nil || cfg.Replay != nil {
		return nil, fmt.Errorf("engine: trace record/replay is serial-only (the concurrent schedule is not reproducible)")
	}
	cfg.Locking = false

	// The pool sizes itself to the machine: the next power of two >=
	// GOMAXPROCS, spreading P simultaneously running sessions over at least
	// P shards; every pool shard must own at least one frame.
	procs := runtime.GOMAXPROCS(0)
	bufShards := 1
	for bufShards < procs && bufShards*2 <= cfg.Buffers {
		bufShards *= 2
	}

	c := &Concurrent{opt: opt}
	w, err := buildWorld(cfg, func(w *world) (framePool, error) {
		// One policy instance per pool shard, each sized to its shard's frame
		// quota with its own RNG stream — victim selection runs under the
		// shard lock, so per-shard state needs no further synchronization.
		policies := make([]buffer.Policy, bufShards)
		for i := range policies {
			stream := w.sim.Stream(fmt.Sprintf("random-replacement-%d", i))
			p, err := w.newPolicy(buffer.ShardCapacity(cfg.Buffers, bufShards, i),
				func() *rand.Rand { return stream })
			if err != nil {
				return nil, err
			}
			policies[i] = p
		}
		// A page transfer under a persistent backend is a counter increment
		// under the shard lock (frames carry no bytes), so a fault needs no
		// more of the structure guard than the read guard every
		// transaction holds.
		pool, err := buffer.NewConcurrentPool(cfg.Buffers, policies)
		if err != nil {
			return nil, err
		}
		c.pool = pool
		return pool, nil
	})
	if err != nil {
		return nil, err
	}
	c.world = w

	c.sessions = make([]*csession, opt.Sessions)
	for i := range c.sessions {
		// Session 0 draws the serial engine's own "workload" stream: a
		// one-session run replays the identical transaction sequence, the
		// digest-equality oracle the tests pin. Extra sessions get their
		// own derived streams.
		wrkName := "workload"
		if i > 0 {
			wrkName = fmt.Sprintf("workload-%d", i)
		}
		view := c.pool.NewView()
		c.sessions[i] = &csession{
			id:    i,
			think: w.sim.Stream(fmt.Sprintf("think-%d", i)),
			stack: w.newStack(w.newGenerator(wrkName), view),
			view:  view,
		}
		if w.durable != nil {
			c.sessions[i].wait = new(stats.Hist)
		}
	}
	return c, nil
}

// Run drives the configured transaction count through the session
// goroutines and returns the merged results. Run is one-shot.
func (c *Concurrent) Run() (ConcurrentResults, error) {
	if c.ran {
		return ConcurrentResults{}, fmt.Errorf("engine: Concurrent.Run is one-shot")
	}
	c.ran = true

	start := time.Now()
	var wg sync.WaitGroup
	for _, cs := range c.sessions {
		wg.Add(1)
		go func(cs *csession) {
			defer wg.Done()
			c.runSession(cs, start)
		}(cs)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := ConcurrentResults{
		ResultCore: c.report(),
		Sessions:   c.opt.Sessions,
		Elapsed:    elapsed,
	}
	for _, cs := range c.sessions {
		if cs.err != nil {
			return ConcurrentResults{}, cs.err
		}
		// XOR combines the per-session digests order-independently: with
		// one session this is that session's digest, directly comparable to
		// the serial run's.
		r.LogicalDigest ^= cs.stack.digest
		r.ConservationViolations += cs.stack.conserve
		r.Completed += cs.completed
		r.IOCounts.add(cs.ops)
		r.Latency.Merge(&cs.hist)
		r.CommitWait.Merge(cs.wait)
		for k := workload.QueryKind(0); k < workload.NumQueryKinds; k++ {
			if cs.kind[k] > 0 {
				r.KindCount[k.String()] += cs.kind[k]
				r.KindIOs[k.String()] += cs.kindIOs[k]
				r.KindHits[k.String()] += cs.kindHits[k]
			}
		}
	}
	if sec := elapsed.Seconds(); sec > 0 {
		r.Throughput = float64(r.Completed) / sec
	}
	return r, nil
}

// quota returns session i's share of the issue budget: the total
// transaction count splits evenly, remainder to the low sessions. A fixed
// per-session split (rather than sessions racing a shared counter) keeps
// each session's transaction stream a pure function of the seed, so the
// combined digest of a read-only run is reproducible at any session count
// — the concurrent engine's own differential-oracle invariant.
func (c *Concurrent) quota(i int) int64 {
	total := c.cfg.Transactions + c.cfg.Warmup
	n := c.opt.Sessions
	q := total / n
	if i < total%n {
		q++
	}
	return int64(q)
}

// runSession is one client goroutine's think/submit loop. The bookkeeping
// order — draw a session length when the burst is exhausted, check the
// issue budget, then draw the transaction — mirrors the serial engine's
// user.onWake exactly, so a one-session run consumes its RNG stream in the
// identical order.
func (c *Concurrent) runSession(cs *csession, start time.Time) {
	// Hits the view deferred reach the pool's policy and statistics before
	// Run reads them, whichever way the session ends.
	defer cs.view.Drain()
	limit := c.quota(cs.id)
	warmup := int64(c.cfg.Warmup)

	// Open-loop pacing: this session carries 1/Sessions of the aggregate
	// arrival rate; intended arrival instants accumulate independent of
	// how long transactions actually take.
	openLoop := c.opt.ArrivalRate > 0
	var meanGap float64 // seconds
	if openLoop {
		meanGap = float64(c.opt.Sessions) / c.opt.ArrivalRate
	}
	intended := time.Duration(0) // offset from start

	for issued := int64(0); ; {
		if cs.remaining == 0 {
			cs.remaining = cs.stack.gen.SessionLength()
		}
		// Fail-stop: once any session has failed (a lost log write, say),
		// nobody commits behind the failure.
		if issued++; issued > limit || c.failed.Load() {
			return
		}
		cs.remaining--

		var t0 time.Time
		switch {
		case openLoop:
			intended += time.Duration(sim.Exp(cs.think, meanGap) * float64(time.Second))
			t0 = start.Add(intended)
			if d := time.Until(t0); d > 0 {
				time.Sleep(d)
			}
			// A late start charges the backlog to this transaction's
			// latency — no coordinated omission.
		case c.opt.ThinkTime > 0:
			think := time.Duration(sim.Exp(cs.think, c.opt.ThinkTime.Seconds()) * float64(time.Second))
			time.Sleep(think)
			t0 = time.Now()
		default:
			t0 = time.Now()
		}

		txn := int(c.txnSeq.Add(1)) - 1
		if err := c.execute(cs, txn); err != nil {
			cs.err = err
			c.failed.Store(true)
			return
		}

		if c.completed.Add(1) > warmup {
			cs.hist.Record(time.Since(t0).Microseconds())
		}
	}
}

// execute runs one transaction end to end: draw, execute, acknowledge.
func (c *Concurrent) execute(cs *csession, txn int) error {
	// Drawing the request reads the target indexes (which writers append
	// to via NoteCreated, under the exclusive guard) and the graph, so it
	// happens under the read guard. Under a write-enabled OCB stream the
	// base genuinely mutates at run time — every session's generator
	// appends its inserts to the shared creation order, so sessions can
	// target each other's objects.
	c.mu.RLock()
	req := cs.stack.gen.Next()
	c.mu.RUnlock()

	// The structure guard. A target deleted between draw and execute
	// surfaces as a not-found read, the same benign reordering a serial
	// lock wait produces.
	var (
		res AccessResult
		err error
	)
	if req.Kind.IsWrite() {
		// The shared clusterer calls the pool directly, so the session's
		// deferred hits drain first and its own calls run eagerly: every
		// shard's policy sees the write's accesses in the order they occur.
		c.mu.Lock()
		cs.view.SetEager(true)
		res, err = c.transact(cs.stack, txn, req)
		cs.view.SetEager(false)
		c.mu.Unlock()
		// The commit record is in the log in guard order; the flush happens
		// out here, beside other sessions' reads and appends, holding
		// nothing. A later writer of the same objects may commit meanwhile;
		// its own flush covers this commit too.
		if err == nil && cs.wait != nil {
			t0 := time.Now()
			err = c.awaitDurable()
			cs.wait.Record(time.Since(t0).Microseconds())
		}
	} else {
		// Reads never touch the log (before-images are write-only), so the
		// Begin/End bracket — a mutation of the shared open-set — is
		// skipped rather than promoted to an exclusive section.
		c.mu.RLock()
		res, err = cs.stack.Execute(txn, req)
		c.mu.RUnlock()
	}
	if err != nil {
		return err
	}

	cs.completed++
	cs.ops.note(res)
	cs.kind[req.Kind]++
	cs.kindIOs[req.Kind] += len(res.IOs)
	cs.kindHits[req.Kind] += res.Hits
	return nil
}

// ConcurrentResults summarizes one concurrent run: the shared ResultCore
// (totals; warmup transactions are excluded from the latency distribution
// but not from the counters or the digest) plus the wall-clock latency
// distribution.
type ConcurrentResults struct {
	ResultCore
	Sessions int

	// Wall-clock measurements.
	Elapsed time.Duration
	Latency stats.Hist // per-transaction latency, microseconds
	// CommitWait is the time each write spent waiting for its commit to
	// become durable, microseconds, outside the structure guard (warm-up
	// writes included). Empty on a memory-backed run.
	CommitWait stats.Hist
}

// String renders a one-line summary; a durable run adds where its writes
// waited.
func (r ConcurrentResults) String() string {
	s := fmt.Sprintf("%d sessions: %d txns in %v (%.0f txn/s) p50=%dµs p99=%dµs hit=%.3f",
		r.Sessions, r.Completed, r.Elapsed.Round(time.Millisecond), r.Throughput,
		r.Latency.Quantile(0.50), r.Latency.Quantile(0.99), r.HitRatio)
	if r.CommitWait.N() > 0 {
		s += fmt.Sprintf(" commit-wait p50=%dµs p99=%dµs",
			r.CommitWait.Quantile(0.50), r.CommitWait.Quantile(0.99))
	}
	return s
}

// CheckInvariants validates the shared structures after a run: pool shard
// quotas and pin counts, and no transaction left open in the log.
func (c *Concurrent) CheckInvariants() error {
	if err := c.pool.CheckInvariants(); err != nil {
		return err
	}
	if c.log.Open() != 0 {
		return fmt.Errorf("engine: %d transactions still open in the log", c.log.Open())
	}
	return nil
}
