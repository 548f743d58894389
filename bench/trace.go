package main

import (
	"sync/atomic"
	"time"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// The traced run measures layers from OUTSIDE the engine: timing decorators
// are registered through the public registries under the names below and
// selected by Config.Backend / Config.ClusterStrategy. Spans inside the
// program are a later change (ROADMAP item 5).
const (
	tracedBackendName  = "bench-traced-file"
	tracedStrategyName = "bench-traced-affinity"
)

// activeTracer is the collector the registry factories bind to the engine
// under construction. The registries hold package-level factories, so the
// hand-off has to be package-level too; runRound sets it around exactly one
// constructor call at a time.
var activeTracer *tracer

func init() {
	storage.RegisterBackend(tracedBackendName, func(m *storage.Manager, opt storage.BackendOptions) (storage.Backend, error) {
		fb, err := storage.NewFileBackend(m, opt)
		if err != nil {
			return nil, err
		}
		return &tracedBackend{Durable: fb, t: activeTracer}, nil
	})
	core.RegisterClusterStrategy(tracedStrategyName, func(s core.ClusterSeam) core.ClusterStrategy {
		inner, err := core.NewClusterStrategy("affinity", s)
		if err != nil {
			panic(err) // "affinity" is registered by core's own init
		}
		return &tracedStrategy{ClusterStrategy: inner, t: activeTracer}
	})
}

// span accumulates one kind of call. Readers reach the backend concurrently
// under the engine's shared guard, so every field is atomic.
type span struct {
	ns    atomic.Int64
	calls atomic.Int64
}

func (s *span) ms() float64 { return float64(s.ns.Load()) / 1e6 }

func (s *span) meanUs() float64 {
	if n := s.calls.Load(); n > 0 {
		return float64(s.ns.Load()) / 1e3 / float64(n)
	}
	return 0
}

func (s *span) reset() { s.ns.Store(0); s.calls.Store(0) }

// tracer holds the spans of one traced engine.
type tracer struct {
	commit, begin, mutate, pageRead, pageWrite span // storage.*
	placeNew, recluster                        span // core.* (children included)

	// inStrategy is set while a clusterer call is on the stack. Clusterer
	// calls run under the exclusive guard (or on the serial engine's only
	// goroutine), so every backend span that starts while it is set is that
	// call's child: its time is already inside the parent span.
	inStrategy atomic.Bool
	childNs    atomic.Int64 // backend time nested inside clusterer spans
	topNs      atomic.Int64 // sum of spans with no parent span

	constructPlaceUs float64              // mean PlaceNew during setup
	durable          storage.Durable      // nil on memory-backed runs
	atReady          storage.DurableStats // counters when setup returned
}

// exit closes a backend span opened at start.
func (t *tracer) exit(s *span, start time.Time) {
	d := time.Since(start).Nanoseconds()
	s.ns.Add(d)
	s.calls.Add(1)
	if t.inStrategy.Load() {
		t.childNs.Add(d)
	} else {
		t.topNs.Add(d)
	}
}

// setupDone is called from the hooks the engines run when construction
// ends; everything measured before it belongs to setup_s, not to the run.
func (t *tracer) setupDone() {
	if t.placeNew.calls.Load() > 0 {
		t.constructPlaceUs = t.placeNew.meanUs()
	}
	for _, s := range []*span{&t.commit, &t.begin, &t.mutate, &t.pageRead, &t.pageWrite, &t.placeNew, &t.recluster} {
		s.reset()
	}
	t.childNs.Store(0)
	t.topNs.Store(0)
	if t.durable != nil {
		t.atReady = t.durable.DurableStats()
	}
}

// report writes the traced metrics of a finished run into vals. sessions ×
// elapsed is the session time the run had to spend; what the top-level
// spans do not cover is engine.residual_ms — generator draw, object-lock
// wait, guard wait, graph walk — so spans + residual equal it by
// construction.
func (t *tracer) report(vals map[string]float64, elapsed time.Duration, sessions, completed int) {
	ops := float64(completed)
	child := float64(t.childNs.Load()) / 1e6
	vals["storage.commit_ms"] = t.commit.ms()
	vals["storage.commit_us"] = t.commit.meanUs()
	vals["storage.begin_ms"] = t.begin.ms()
	vals["storage.mutate_ms"] = t.mutate.ms()
	vals["storage.page_read_ms"] = t.pageRead.ms()
	vals["storage.page_write_ms"] = t.pageWrite.ms()
	vals["core.place_new_ms"] = t.placeNew.ms()
	vals["core.place_new_us"] = t.placeNew.meanUs()
	vals["core.recluster_ms"] = t.recluster.ms()
	vals["core.self_ms"] = t.placeNew.ms() + t.recluster.ms() - child
	vals["core.construct_place_us"] = t.constructPlaceUs
	vals["engine.session_ms"] = float64(sessions) * elapsed.Seconds() * 1e3
	vals["engine.residual_ms"] = vals["engine.session_ms"] - float64(t.topNs.Load())/1e6
	if t.durable == nil {
		return
	}
	now, was := t.durable.DurableStats(), t.atReady
	if commits := float64(now.Committed - was.Committed); commits > 0 {
		vals["storage.wal_appends_per_commit"] = float64(now.WALAppends-was.WALAppends) / commits
		vals["storage.fsyncs_per_commit"] = float64(now.WALSyncs-was.WALSyncs) / commits
	}
	vals["storage.page_reads_per_op"] = float64(now.PageReads-was.PageReads) / ops
	vals["storage.page_writes_per_op"] = float64(now.PageWrites-was.PageWrites) / ops
}

// tracedBackend embeds storage.Durable, so every capability the engine
// discovers by type assertion (PageIO, TxnLog, CommitBootstrap, Close,
// DurableStats) still forwards; only the calls worth a clock read are timed.
// Nanosecond calls (PageOf, Fits) pass straight through.
type tracedBackend struct {
	storage.Durable
	t *tracer
}

func (b *tracedBackend) Place(obj model.ObjectID, pg storage.PageID) error {
	defer b.t.exit(&b.t.mutate, time.Now())
	return b.Durable.Place(obj, pg)
}

func (b *tracedBackend) Remove(obj model.ObjectID) error {
	defer b.t.exit(&b.t.mutate, time.Now())
	return b.Durable.Remove(obj)
}

func (b *tracedBackend) Move(obj model.ObjectID, pg storage.PageID) error {
	defer b.t.exit(&b.t.mutate, time.Now())
	return b.Durable.Move(obj, pg)
}

func (b *tracedBackend) LogBegin(txn int) error {
	defer b.t.exit(&b.t.begin, time.Now())
	return b.Durable.LogBegin(txn)
}

func (b *tracedBackend) LogCommit(txn int) error {
	defer b.t.exit(&b.t.commit, time.Now())
	return b.Durable.LogCommit(txn)
}

func (b *tracedBackend) ReadPage(pg storage.PageID) error {
	defer b.t.exit(&b.t.pageRead, time.Now())
	return b.Durable.ReadPage(pg)
}

func (b *tracedBackend) WritePage(pg storage.PageID) error {
	defer b.t.exit(&b.t.pageWrite, time.Now())
	return b.Durable.WritePage(pg)
}

// CommitBootstrap is the last thing both engines do before they return
// from construction, which makes it the backend's end-of-setup hook.
func (b *tracedBackend) CommitBootstrap() error {
	err := b.Durable.CommitBootstrap()
	b.t.durable = b.Durable
	b.t.setupDone()
	return err
}

// tracedStrategy times the clusterer's two entry points; nested backend
// spans are subtracted from them as children.
type tracedStrategy struct {
	core.ClusterStrategy
	t *tracer
}

func (t *tracer) enterStrategy() time.Time {
	t.inStrategy.Store(true)
	return time.Now()
}

func (t *tracer) exitStrategy(s *span, start time.Time) {
	t.inStrategy.Store(false) // the clusterer's own span has no parent
	t.exit(s, start)
}

func (s *tracedStrategy) PlaceNew(o *model.Object) (core.Placement, error) {
	defer s.t.exitStrategy(&s.t.placeNew, s.t.enterStrategy())
	return s.ClusterStrategy.PlaceNew(o)
}

func (s *tracedStrategy) Recluster(o *model.Object) (core.Placement, error) {
	defer s.t.exitStrategy(&s.t.recluster, s.t.enterStrategy())
	return s.ClusterStrategy.Recluster(o)
}

// ResetStats is called by both engines once construction has placed every
// object: the clusterer's end-of-setup hook (memory-backed runs have no
// CommitBootstrap).
func (s *tracedStrategy) ResetStats() {
	s.ClusterStrategy.ResetStats()
	s.t.setupDone()
}
