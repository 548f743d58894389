package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"oodb/internal/engine"
	"oodb/internal/storage"
)

// options are the knobs shared by every run of a workload.
type options struct {
	seed     int64
	sessions int
	dir      string // data-directory root for the file workloads
	smoke    bool
	oracle   bool    // one user, no warmup: the cross-engine digest oracle's shape
	seconds  float64 // wall-clock budget of one run of one workload
}

// round is what one fresh engine (construct, run, close, recover) measured:
// every metric it can speak to by name, plus the failure accounting.
type round struct {
	vals      map[string]float64
	elapsed   time.Duration
	attempted int
	completed int
	failures  []string

	logical, final uint64 // the run's oracle digests
}

func (r *round) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *round) check(ok bool, format string, args ...any) {
	if !ok {
		r.failf(format, args...)
	}
}

// simSlice is the unit of work a caller of the serial engine waits on:
// lat_p99_us on sim-paper is the p99 wall-clock time of one RunN(simSlice).
const simSlice = 50

// runRound builds one engine for w, runs it to completion and verifies it.
// With a tracer, the timing decorators registered in trace.go are selected
// through Config.Backend / Config.ClusterStrategy and t collects their spans.
func runRound(w workload, o options, t *tracer) (*round, error) {
	cfg := w.sized(o)
	if w.File {
		dir, err := os.MkdirTemp(o.dir, w.Name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
	}
	if t != nil {
		cfg.ClusterStrategy = tracedStrategyName
		if w.File {
			cfg.Backend = tracedBackendName
		}
		activeTracer = t
		defer func() { activeTracer = nil }()
	}
	r := &round{vals: map[string]float64{}, attempted: cfg.Transactions + cfg.Warmup}
	var err error
	if w.Serial {
		err = r.runSerial(cfg, t)
	} else {
		err = r.runConcurrent(cfg, o.sessions, t)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	r.vals["failed_frac"] = float64(r.attempted-r.completed+len(r.failures)) / float64(r.attempted)
	return r, nil
}

// settle collects garbage and records mem_mb: the live heap once setup has
// returned, i.e. the resident footprint of graph + store + pool. The
// snapshot it returns is the baseline allocations() measures the run from.
func (r *round) settle() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.vals["mem_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return ms
}

// allocations records what Run() allocated per operation and how many
// collections it triggered: on the read-only workloads the collector is the
// main thing an operation can be made to wait for.
func (r *round) allocations(before runtime.MemStats, ops float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.vals["engine.allocs_per_op"] = float64(ms.Mallocs-before.Mallocs) / ops
	r.vals["engine.alloc_bytes_per_op"] = float64(ms.TotalAlloc-before.TotalAlloc) / ops
	r.vals["engine.gc_cycles"] = float64(ms.NumGC - before.NumGC)
}

func (r *round) runConcurrent(cfg engine.Config, sessions int, t *tracer) error {
	t0 := time.Now()
	c, err := engine.NewConcurrent(cfg, engine.ConcurrentOptions{Sessions: sessions})
	if err != nil {
		return err
	}
	r.vals["setup_s"] = time.Since(t0).Seconds()
	atReady := r.settle()
	walPath := filepath.Join(cfg.DataDir, storage.WALFileName)
	walAtReady := fileSize(walPath)

	res, runErr := c.Run()
	r.allocations(atReady, float64(res.Completed))
	if t != nil && runErr == nil {
		t.report(r.vals, res.Elapsed, sessions, res.Completed)
	}
	invErr := c.CheckInvariants()
	if err := errors.Join(runErr, c.Close()); err != nil {
		return err
	}
	r.elapsed = res.Elapsed
	r.completed = res.Completed
	r.check(invErr == nil, "invariants: %v", invErr)
	r.check(res.ConservationViolations == 0, "%d conservation violations", res.ConservationViolations)
	r.check(res.LocksHeld == 0, "%d locks still held", res.LocksHeld)
	r.check(res.LiveObjects == res.PlacedObjects, "%d live objects but %d placed", res.LiveObjects, res.PlacedObjects)
	r.check(res.Completed == r.attempted, "completed %d of %d operations", res.Completed, r.attempted)

	ops := float64(res.Completed)
	v := r.vals
	v["ops_per_s"] = ops / res.Elapsed.Seconds()
	v["lat_p99_us"] = float64(res.Latency.Quantile(0.99))
	v["engine.lat_samples"] = float64(res.Latency.N())
	v["engine.lat_p50_us"] = float64(res.Latency.Quantile(0.50))
	v["engine.lat_p999_us"] = float64(res.Latency.Quantile(0.999))
	v["engine.lat_max_us"] = float64(res.Latency.Max())
	v["engine.logical_ops_per_op"] = float64(res.LogicalOps) / ops
	v["engine.phys_io_per_op"] = float64(res.PhysReads+res.PhysWrites+res.LogIOs) / ops
	v["lock.requests_per_op"] = float64(res.Locks.Requests) / ops
	v["lock.conflict_ratio"] = ratio(res.Locks.Conflicts, res.Locks.Requests)
	v["lock.max_waiters"] = float64(res.Locks.MaxWaiters)
	v["buffer.hit_ratio"] = res.HitRatio
	v["buffer.evictions_per_op"] = float64(res.Pool.Evictions) / ops
	v["buffer.flushes_per_op"] = float64(res.Pool.Flushes) / ops
	r.logical, r.final = res.LogicalDigest, res.FinalStateDigest

	if cfg.DataDir == "" {
		return nil
	}
	// DurableStats are totals since construction and include the bootstrap
	// placement of every object, so the log is stat'ed from outside instead.
	commits := res.Durability.Committed
	v["storage.wal_mb"] = float64(fileSize(walPath)) / (1 << 20)
	v["wal_bytes_per_commit"] = float64(fileSize(walPath)-walAtReady) / float64(commits)
	t0 = time.Now()
	rec, err := storage.RecoverDir(cfg.DataDir, nil)
	took := time.Since(t0).Seconds()
	if err != nil {
		r.failf("recovery: %v", err)
		return nil
	}
	v["recover_s"] = took
	v["storage.recover_mb_per_s"] = v["storage.wal_mb"] / took
	r.check(int64(rec.Committed) == commits, "recovered %d commits, run committed %d", rec.Committed, commits)
	r.check(rec.Objects == res.PlacedObjects, "recovered %d objects, run placed %d", rec.Objects, res.PlacedObjects)
	return nil
}

func (r *round) runSerial(cfg engine.Config, t *tracer) error {
	t0 := time.Now()
	e, err := engine.New(cfg)
	if err != nil {
		return err
	}
	r.vals["setup_s"] = time.Since(t0).Seconds()
	atReady := r.settle()

	// The engine is driven in RunN slices — its own bounded-work API — so a
	// caller-visible wall-clock latency exists on the serial driver too.
	slices := make([]float64, 0, r.attempted/simSlice+1)
	start := time.Now()
	last := start
	for {
		n, err := e.RunN(simSlice)
		if err != nil {
			return err
		}
		now := time.Now()
		if n == simSlice {
			slices = append(slices, float64(now.Sub(last).Nanoseconds())/1e3)
		}
		last = now
		if n < simSlice {
			break
		}
	}
	res, runErr := e.Run() // drains the calendar and renders the results
	elapsed := time.Since(start)
	r.allocations(atReady, float64(res.Completed))
	if t != nil && runErr == nil {
		t.report(r.vals, elapsed, 1, res.Completed)
	}
	if err := errors.Join(runErr, e.Close()); err != nil {
		return err
	}
	r.elapsed = elapsed
	r.completed = res.Completed
	r.check(res.ConservationViolations == 0, "%d conservation violations", res.ConservationViolations)
	r.check(res.LocksHeld == 0, "%d locks still held", res.LocksHeld)
	r.check(res.LiveObjects == res.PlacedObjects, "%d live objects but %d placed", res.LiveObjects, res.PlacedObjects)
	r.check(res.Completed == r.attempted, "completed %d of %d transactions", res.Completed, r.attempted)

	sort.Float64s(slices)
	ops := float64(res.Completed)
	events := float64(e.EventsExecuted())
	v := r.vals
	v["ops_per_s"] = ops / elapsed.Seconds()
	v["lat_p99_us"] = sortedQuantile(slices, 0.99)
	v["engine.lat_samples"] = float64(len(slices))
	v["engine.lat_p50_us"] = sortedQuantile(slices, 0.50)
	v["engine.lat_p999_us"] = sortedQuantile(slices, 0.999)
	v["engine.lat_max_us"] = slices[len(slices)-1]
	v["sim_resp_ms"] = res.MeanResponse * 1e3
	v["engine.logical_ops_per_op"] = float64(res.LogicalOps) / ops
	v["engine.phys_io_per_op"] = float64(res.PhysReads+res.PhysWrites+res.LogIOs) / ops
	v["lock.requests_per_op"] = float64(res.Locks.Requests) / ops
	v["lock.conflict_ratio"] = ratio(res.Locks.Conflicts, res.Locks.Requests)
	v["lock.max_waiters"] = float64(res.Locks.MaxWaiters)
	v["buffer.hit_ratio"] = res.HitRatio
	v["buffer.evictions_per_op"] = float64(res.Pool.Evictions) / ops
	v["buffer.flushes_per_op"] = float64(res.Pool.Flushes) / ops
	v["sim.events_per_s"] = events / elapsed.Seconds()
	v["sim.events_per_txn"] = events / ops
	v["sim.cpu_util"] = res.CPUUtil
	v["sim.disk_util"] = res.MeanDiskUtil
	v["txlog.records_per_op"] = float64(res.Log.Records) / ops
	v["txlog.before_image_ios_per_op"] = float64(res.Log.BeforeImageIOs) / ops
	v["core.placements"] = float64(res.Cluster.Placements)
	v["core.moves"] = float64(res.Cluster.Moves)
	v["core.splits"] = float64(res.Cluster.Splits)
	v["core.candidate_ios_per_op"] = float64(res.Cluster.CandidateIOs) / ops
	r.logical, r.final = res.LogicalDigest, res.FinalStateDigest
	return nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// digest32 folds the two oracle digests into 32 bits, which a JSON number
// carries exactly.
func digest32(logical, final uint64) float64 {
	x := logical ^ final
	return float64(uint32(x) ^ uint32(x>>32))
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// sortedQuantile is the nearest-rank quantile of an ascending slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// valuesOf collects what the rounds recorded under name.
func valuesOf(rounds []*round, name string) []float64 {
	var xs []float64
	for _, r := range rounds {
		if x, ok := r.vals[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// steady is the mean of the better third of the rounds' values of m (the
// lowest third when lower is better, the highest when higher is). On this
// shared two-core sandbox interference comes in bursts of several seconds
// and only ever slows a round down, so the quietest rounds are the ones that
// measure the program: over ten seeds this estimator's spread was half the
// median's on every workload (README.md, "Steadiness").
func steady(rounds []*round, m metric) float64 {
	xs := valuesOf(rounds, m.Name)
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := (len(xs) + 2) / 3
	if m.Better == "higher" {
		xs = xs[len(xs)-k:]
	} else {
		xs = xs[:k]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(k)
}

// median of the values recorded under name across rounds (absent: 0, false).
func median(rounds []*round, name string) (float64, bool) {
	xs := valuesOf(rounds, name)
	if len(xs) == 0 {
		return 0, false
	}
	return medianOfValues(xs), true
}
