// Package experiment regenerates every table and figure of the paper's
// evaluation: Figures 3.2–3.4 (OCT access patterns), Figure 5.1–5.14 and
// Table 5.1 (clustering and buffering simulation results), and Figures
// 6.1–6.2 (two-level factorial effect analysis), plus the extension
// experiments the paper defers to [CHAN89].
//
// Each runner returns a Table whose rows and series match what the paper
// reports; renderers produce aligned text output. Simulation runs are
// memoized per harness so overlapping figures (e.g. Figure 5.1 and Figures
// 5.2–5.4) do not repeat work.
//
// Runs are independent, seeded, and deterministic, so the harness executes
// them on a worker pool: runners plan their full configuration set up front
// and submit it as one batch (RunConfigs), and the memo cache is guarded by
// a mutex with in-flight deduplication so concurrent requests for the same
// configuration — within one batch or across racing experiments — execute
// exactly once. Results are always returned in input order, and every run
// owns its own seeded simulator, so parallel output is byte-identical to
// serial output.
package experiment

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"oodb/internal/engine"
)

// Options controls experiment scale. The defaults trade fidelity for
// wall-clock time; -scale 1.0 runs the paper's full 500 MB configuration.
type Options struct {
	// Scale multiplies the paper's database size and buffer-pool frames
	// together (see engine.DefaultConfig).
	Scale float64
	// Transactions per simulation run.
	Transactions int
	// Seed drives all randomness.
	Seed int64
	// Replications runs each configuration at this many consecutive seeds
	// and averages the measurements — standard simulation methodology for
	// smoothing a single run's noise. Default 1.
	Replications int
	// Workers bounds how many simulation runs execute concurrently in the
	// batch APIs (RunConfigs, RunAll) and across replications. Zero means
	// runtime.GOMAXPROCS(0); 1 forces serial execution.
	Workers int
	// Verbose, when non-nil, receives progress lines. The harness
	// serializes calls, so the callback needs no locking of its own.
	Verbose func(string)

	// ClusterStrategy selects the clustering strategy by registry name for
	// every run in the experiment ("" = "affinity", the paper's algorithm).
	ClusterStrategy string

	// Workload selects the workload family for every run: "" or "oct" for
	// the paper's engineering-design workload, "ocb" for the OCB synthetic
	// workload (engine.WorkloadOCB). The OCB-specific experiments override
	// it per run regardless.
	Workload string

	// ReplacementLow and ReplacementHigh override the factorial design's
	// buffer-replacement factor levels by registry name ("" keeps the
	// paper's LRU / Context-sensitive pair). They let the Section 6 analysis
	// rank any registered policy, e.g. "clock".
	ReplacementLow  string
	ReplacementHigh string

	// CheckpointDir, when non-empty, caches each finished run's results in
	// <dir>/<config-hash>.ckpt and, on a later invocation, returns a cached
	// configuration's results without running it — so a killed batch
	// restarts by re-running only the configurations that had not
	// finished. A missing, corrupt or mismatched file means a fresh run
	// that overwrites it. The cache is keyed by configuration, not by
	// code: empty the directory after changing the simulator.
	CheckpointDir string
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.02
	}
	if o.Transactions <= 0 {
		o.Transactions = 1500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Replications <= 0 {
		o.Replications = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Harness runs simulations with memoization. It is safe for concurrent use:
// the memo cache is mutex-guarded, and an in-flight table deduplicates
// concurrent requests for the same configuration (singleflight), so a run
// shared by overlapping figures executes exactly once even when the figures
// race.
type Harness struct {
	opt Options

	mu       sync.Mutex
	cache    map[string]engine.Results
	inflight map[string]*inflightRun

	// sem bounds concurrent engine executions across all batch calls and
	// replication fan-outs; it is sized by Options.Workers.
	sem chan struct{}

	verboseMu sync.Mutex
	executed  atomic.Int64 // actual engine runs, for tests and benchmarks
	cached    atomic.Int64 // runs served from the CheckpointDir cache
}

// inflightRun is a singleflight slot: the first requester of a configuration
// executes it, later requesters block on done and share the result.
type inflightRun struct {
	done chan struct{}
	res  engine.Results
	err  error
}

// NewHarness returns a harness for the given options.
func NewHarness(opt Options) *Harness {
	o := opt.withDefaults()
	return &Harness{
		opt:      o,
		cache:    make(map[string]engine.Results),
		inflight: make(map[string]*inflightRun),
		sem:      make(chan struct{}, o.Workers),
	}
}

// Options returns the harness options (with defaults applied).
func (h *Harness) Options() Options { return h.opt }

// baseConfig is the scaled Table 4.1 default configuration.
func (h *Harness) baseConfig() engine.Config {
	cfg := engine.DefaultConfig(h.opt.Scale)
	cfg.Transactions = h.opt.Transactions
	cfg.Seed = h.opt.Seed
	cfg.ClusterStrategy = h.opt.ClusterStrategy
	cfg.Workload = h.opt.Workload
	return cfg
}

// Run simulates cfg (memoized), averaging over the configured number of
// replications (consecutive seeds). It is safe to call from multiple
// goroutines: concurrent requests for the same configuration are
// deduplicated so the simulation executes once and all callers share the
// result.
func (h *Harness) Run(cfg engine.Config) (engine.Results, error) {
	k := cfg.Fingerprint()
	h.mu.Lock()
	if r, ok := h.cache[k]; ok {
		h.mu.Unlock()
		return r, nil
	}
	if f, ok := h.inflight[k]; ok {
		// Another goroutine is already running this configuration; wait
		// for it rather than duplicating the work.
		h.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &inflightRun{done: make(chan struct{})}
	h.inflight[k] = f
	h.mu.Unlock()

	f.res, f.err = h.runUncached(cfg)

	h.mu.Lock()
	if f.err == nil {
		h.cache[k] = f.res
	}
	delete(h.inflight, k)
	h.mu.Unlock()
	close(f.done)
	return f.res, f.err
}

// runUncached executes all replications of cfg. Replications run on their
// own goroutines (bounded, like every engine execution, by the worker
// semaphore) and are averaged in seed order, so the result is independent of
// completion order.
func (h *Harness) runUncached(cfg engine.Config) (engine.Results, error) {
	h.progress("run " + cfg.Label())
	n := h.opt.Replications
	if n == 1 {
		return h.runOne(cfg)
	}
	reps := make([]engine.Results, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Seed = cfg.Seed + int64(i)
			reps[i], errs[i] = h.runOne(c)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return engine.Results{}, err
		}
	}
	return averageResults(reps), nil
}

// runOne executes a single simulation, holding a worker-semaphore slot for
// the duration, unless the CheckpointDir cache already holds its results.
// Only runOne acquires the semaphore — callers never hold a slot while
// waiting on other runs, so fan-out cannot deadlock.
func (h *Harness) runOne(cfg engine.Config) (engine.Results, error) {
	if h.opt.CheckpointDir != "" {
		if res, ok := h.loadCached(cfg); ok {
			h.cached.Add(1)
			h.progress("cached " + cfg.Label())
			return res, nil
		}
	}
	h.sem <- struct{}{}
	defer func() { <-h.sem }()
	h.executed.Add(1)
	e, err := engine.New(cfg)
	if err != nil {
		return engine.Results{}, err
	}
	res, err := e.Run()
	if err == nil && h.opt.CheckpointDir != "" {
		err = h.storeCached(cfg, res)
	}
	return res, err
}

// progress emits a Verbose line; calls are serialized so concurrent runs do
// not interleave output.
func (h *Harness) progress(line string) {
	if h.opt.Verbose == nil {
		return
	}
	h.verboseMu.Lock()
	defer h.verboseMu.Unlock()
	h.opt.Verbose(line)
}

// Executed returns the number of engine runs actually performed (cache and
// in-flight hits excluded).
func (h *Harness) Executed() int64 { return h.executed.Load() }

// RunConfigs executes a batch of configurations on the worker pool and
// returns their results in input order. Duplicate configurations in one
// batch — or concurrently submitted by another batch — run once and share
// the result. The first error (by input order) is returned; a failing
// configuration does not cancel the others.
func (h *Harness) RunConfigs(cfgs []engine.Config) ([]engine.Results, error) {
	out := make([]engine.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	w := h.opt.Workers
	if w > len(cfgs) {
		w = len(cfgs)
	}
	if w <= 1 {
		for i, cfg := range cfgs {
			out[i], errs[i] = h.Run(cfg)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for j := 0; j < w; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i], errs[i] = h.Run(cfgs[i])
				}
			}()
		}
		for i := range cfgs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunAll looks up and runs several experiments over the shared harness,
// returning their tables in input order. Experiments run concurrently on the
// worker pool; the in-flight deduplication guarantees a simulation shared by
// overlapping figures (Figure 5.1's grid reappears in Figures 5.2–5.4)
// executes once no matter which experiment requests it first.
func (h *Harness) RunAll(ids []string) ([]*Table, error) {
	runners := make([]Runner, len(ids))
	for i, id := range ids {
		r, ok := Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown id %q", id)
		}
		runners[i] = r
	}
	tables := make([]*Table, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i := range runners {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], errs[i] = runners[i](h)
		}(i)
	}
	wg.Wait()
	h.progress(fmt.Sprintf("executed %d runs, %d served from the results cache", h.Executed(), h.cached.Load()))
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return tables, nil
}

// roundCount converts an averaged count to an integer, rounding half-up
// (averaged counts are never negative). Truncation would bias every averaged
// count downward by half a unit in expectation.
func roundCount(x float64) int { return int(math.Floor(x + 0.5)) }

// averageResults averages the measurement fields the experiment runners
// consume across replications. Configuration and count fields come from the
// first replication; counts that feed per-transaction normalizations are
// averaged too.
func averageResults(rs []engine.Results) engine.Results {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	n := float64(len(rs))
	var resp, p95, read, write, hit float64
	var completed, logIOs, beforeImg, bufFlush, physR, physW float64
	var gCut, oCut float64
	var splitsCmp float64
	for _, r := range rs {
		resp += r.MeanResponse
		p95 += r.P95Response
		read += r.ReadResponse
		write += r.WriteResponse
		hit += r.HitRatio
		completed += float64(r.Completed)
		logIOs += float64(r.LogIOs)
		beforeImg += float64(r.Log.BeforeImageIOs)
		bufFlush += float64(r.Log.BufferFlushes)
		physR += float64(r.PhysReads)
		physW += float64(r.PhysWrites)
		gCut += r.Cluster.GreedyCutTotal
		oCut += r.Cluster.OptimalCutTotal
		splitsCmp += float64(r.Cluster.SplitsCompared)
	}
	out.MeanResponse = resp / n
	out.P95Response = p95 / n
	out.ReadResponse = read / n
	out.WriteResponse = write / n
	out.HitRatio = hit / n
	out.Completed = roundCount(completed / n)
	out.LogIOs = roundCount(logIOs / n)
	out.Log.BeforeImageIOs = roundCount(beforeImg / n)
	out.Log.BufferFlushes = roundCount(bufFlush / n)
	out.PhysReads = roundCount(physR / n)
	out.PhysWrites = roundCount(physW / n)
	out.Cluster.GreedyCutTotal = gCut / n
	out.Cluster.OptimalCutTotal = oCut / n
	out.Cluster.SplitsCompared = roundCount(splitsCmp / n)
	return out
}

// runBatch collects planned configurations and per-result consumers so a
// runner keeps its natural loop structure while submitting every simulation
// as one parallel batch. Consumers run sequentially in submission order
// after the whole batch completes, so table assembly stays deterministic
// regardless of which worker finishes first.
type runBatch struct {
	h     *Harness
	cfgs  []engine.Config
	sinks []func(engine.Results)
}

// batch starts an empty run batch on the harness.
func (h *Harness) batch() *runBatch { return &runBatch{h: h} }

// add plans one simulation; sink receives its result during run.
func (b *runBatch) add(cfg engine.Config, sink func(engine.Results)) {
	b.cfgs = append(b.cfgs, cfg)
	b.sinks = append(b.sinks, sink)
}

// run executes the planned configurations on the worker pool and feeds each
// consumer its result, in submission order.
func (b *runBatch) run() error {
	res, err := b.h.RunConfigs(b.cfgs)
	if err != nil {
		return err
	}
	for i, sink := range b.sinks {
		sink(res[i])
	}
	return nil
}

// Table is a rendered experiment result: one row per x-axis point, one
// column per series, matching the paper's figure structure.
type Table struct {
	ID      string // e.g. "fig5.1"
	Title   string
	XLabel  string
	Unit    string // cell unit, e.g. "s" or "I/Os"
	Columns []string
	Rows    []Row

	// Notes carries the observations the paper attaches to the figure.
	Notes []string
}

// Row is one x-axis point.
type Row struct {
	Label string
	Cells []float64
}

// Cell returns the value at (rowLabel, column), or an error.
func (t *Table) Cell(rowLabel, column string) (float64, error) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return 0, fmt.Errorf("experiment: table %s has no column %q", t.ID, column)
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel {
			if ci >= len(r.Cells) {
				return 0, fmt.Errorf("experiment: table %s row %q short", t.ID, rowLabel)
			}
			return r.Cells[ci], nil
		}
	}
	return 0, fmt.Errorf("experiment: table %s has no row %q", t.ID, rowLabel)
}

// Render produces an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s -- %s\n", strings.ToUpper(t.ID[:1])+t.ID[1:], t.Title)
	if t.Unit != "" {
		fmt.Fprintf(&b, "(cells in %s)\n", t.Unit)
	}
	w := 12
	for _, c := range t.Columns {
		if len(c) > w {
			w = len(c)
		}
	}
	fmt.Fprintf(&b, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", w, c)
	}
	b.WriteString("\n") // errscan:ok strings.Builder never errors
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-14s", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&b, " %*.4f", w, v)
		}
		b.WriteString("\n") // errscan:ok strings.Builder never errors
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// JSON renders the table as indented JSON for downstream tooling.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(t, "", "  ")
}

// Runner produces one experiment table.
type Runner func(h *Harness) (*Table, error)

// registry maps experiment IDs to runners; populated by init functions in
// the figure files.
var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	var out []string
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the runner for an experiment ID ("fig5.1", "table5.1",
// "fig6.2", "ext.buffersize", ...).
func Lookup(id string) (Runner, bool) {
	r, ok := registry[id]
	return r, ok
}
