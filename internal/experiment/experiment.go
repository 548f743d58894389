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
	// batch APIs (RunConfigs, RunAll) and across replications, and how
	// many built worlds are kept for cloning at once. Zero means
	// runtime.GOMAXPROCS(0); 1 runs one simulation at a time.
	Workers int
	// Verbose, when non-nil, receives progress lines. The harness
	// serializes calls, so the callback needs no locking of its own.
	Verbose func(string)

	// Workload selects the workload family for every run: "" or "oct" for
	// the paper's engineering-design workload, "ocb" for the OCB synthetic
	// workload (engine.WorkloadOCB). The OCB-specific experiments override
	// it per run regardless.
	Workload string

	// CheckpointDir, when non-empty, caches each finished run's results in
	// <dir>/<config-hash>.ckpt and, on a later invocation, returns a cached
	// configuration's results without running it — so a killed batch
	// restarts by re-running only the configurations that had not
	// finished. Each entry records the configuration and the build that
	// wrote it (the executable's SHA-256). A missing or corrupt file, or
	// one from another configuration or another build, means a fresh run
	// that overwrites it.
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
// race. Runs execute on the harness's scheduler (schedule.go), which builds
// each distinct world once and runs every configuration that shares it on
// a clone.
type Harness struct {
	opt Options
	// build is the build identity results-cache entries are written and
	// served under (buildID, unless a test sets another).
	build string

	// mu guards the memo, the in-flight table and the scheduler's state.
	mu       sync.Mutex
	cache    map[string]engine.Results
	inflight map[string]*inflightRun
	sched    scheduler

	verboseMu sync.Mutex
	executed  atomic.Int64 // actual engine runs, for tests and benchmarks
	cached    atomic.Int64 // runs served from the CheckpointDir cache
	built     atomic.Int64 // worlds built: templates and single runs
	cloned    atomic.Int64 // runs on a clone of a template
}

// inflightRun is a singleflight slot: the first requester of a configuration
// submits it, later requesters block on done and share the result. Its
// replications complete into reps; the last one to finish fills res and err.
type inflightRun struct {
	cfg  engine.Config
	key  string
	done chan struct{}
	res  engine.Results
	err  error

	reps []engine.Results
	errs []error
	left int // replications not yet finished
}

// NewHarness returns a harness for the given options.
func NewHarness(opt Options) *Harness {
	o := opt.withDefaults()
	h := &Harness{
		opt:      o,
		cache:    make(map[string]engine.Results),
		inflight: make(map[string]*inflightRun),
	}
	if o.CheckpointDir != "" {
		h.build = buildID()
	}
	h.sched.init(&h.mu)
	return h
}

// Options returns the harness options (with defaults applied).
func (h *Harness) Options() Options { return h.opt }

// baseConfig is the scaled Table 4.1 default configuration.
func (h *Harness) baseConfig() engine.Config {
	cfg := engine.DefaultConfig(h.opt.Scale)
	cfg.Transactions = h.opt.Transactions
	cfg.Seed = h.opt.Seed
	cfg.Workload = h.opt.Workload
	return cfg
}

// Run simulates cfg (memoized), averaging over the configured number of
// replications (consecutive seeds). It is safe to call from multiple
// goroutines: concurrent requests for the same configuration are
// deduplicated so the simulation executes once and all callers share the
// result.
func (h *Harness) Run(cfg engine.Config) (engine.Results, error) {
	res, err := h.RunConfigs([]engine.Config{cfg})
	if err != nil {
		return engine.Results{}, err
	}
	return res[0], nil
}

// RunConfigs executes a batch of configurations on the worker pool and
// returns their results in input order. Duplicate configurations in one
// batch — or concurrently submitted by another batch — run once and share
// the result. The first error (by input order) is returned; a failing
// configuration does not cancel the others.
func (h *Harness) RunConfigs(cfgs []engine.Config) ([]engine.Results, error) {
	keys := make([]string, len(cfgs))
	slots := make([]*inflightRun, len(cfgs))
	for i, cfg := range cfgs {
		// An invalid configuration fails before it is keyed: its Fingerprint
		// may equal a valid one's (an out-of-range enum renders through the
		// enum's String method), which would serve it that memo slot or
		// results-cache entry.
		if err := cfg.Validate(); err != nil {
			slots[i] = &inflightRun{err: err}
			continue
		}
		keys[i] = cfg.Fingerprint()
	}
	var fresh []*inflightRun
	h.mu.Lock()
	for i, k := range keys {
		if slots[i] != nil {
			continue
		}
		if r, ok := h.cache[k]; ok {
			slots[i] = &inflightRun{res: r}
			continue
		}
		if f, ok := h.inflight[k]; ok {
			slots[i] = f
			continue
		}
		f := &inflightRun{cfg: cfgs[i], key: k, done: make(chan struct{})}
		h.inflight[k] = f
		slots[i] = f
		fresh = append(fresh, f)
	}
	h.mu.Unlock()
	h.submit(fresh)

	out := make([]engine.Results, len(cfgs))
	var first error
	for i, f := range slots {
		if f.done != nil {
			<-f.done
		}
		out[i] = f.res
		if f.err != nil && first == nil {
			first = f.err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// submit plans every replication of each configuration: one served from
// the CheckpointDir cache completes at once, the rest go to the scheduler
// together, so the batch's members find each other's worlds.
func (h *Harness) submit(runs []*inflightRun) {
	var jobs []job
	for _, f := range runs {
		cfg := f.cfg
		h.progress("run " + cfg.Label())
		n := h.opt.Replications
		f.reps, f.errs, f.left = make([]engine.Results, n), make([]error, n), n
		for rep := 0; rep < n; rep++ {
			c := cfg
			c.Seed = cfg.Seed + int64(rep)
			if h.opt.CheckpointDir != "" {
				if res, ok := h.loadCached(c); ok {
					h.cached.Add(1)
					h.progress("cached " + c.Label())
					h.finish(job{cfg: c, run: f, rep: rep}, res, nil)
					continue
				}
			}
			jobs = append(jobs, job{cfg: c, run: f, rep: rep})
		}
	}
	h.sched.add(h, jobs)
}

// finish records one replication's outcome. The last replication of a run
// averages them (in seed order, so the result does not depend on which
// finished first), memoizes a success and releases the run's waiters.
func (h *Harness) finish(j job, res engine.Results, err error) {
	if err == nil && h.opt.CheckpointDir != "" {
		err = h.storeCached(j.cfg, res)
	}
	f := j.run
	h.mu.Lock()
	f.reps[j.rep], f.errs[j.rep] = res, err
	f.left--
	last := f.left == 0
	if last {
		for _, e := range f.errs {
			if e != nil {
				f.err = e
				break
			}
		}
		if f.err == nil {
			f.res = averageResults(f.reps)
			h.cache[f.key] = f.res
		}
		f.reps, f.errs = nil, nil
		delete(h.inflight, f.key)
	}
	h.mu.Unlock()
	if last {
		close(f.done)
	}
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
	h.progress(fmt.Sprintf("built %d worlds for %d runs, %d of them on clones", h.built.Load(), h.Executed(), h.cloned.Load()))
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
	var resp, read, write, hit float64
	var completed, logIOs, beforeImg, bufFlush, physR, physW float64
	var gCut, oCut float64
	var splitsCmp float64
	for _, r := range rs {
		resp += r.MeanResponse
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
