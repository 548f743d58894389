// Command bench is the repository's benchmark: five closed-loop saturation
// workloads driven through the engines' public constructors, four end-to-end
// metrics on every workload plus four that apply to some, and per-layer
// attribution measured from outside the engine (result counters, timing
// decorators registered through the public registries, isolated single-layer
// probes). See README.md.
//
//	bash bench/run.sh --workload ocb-durable --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload ocb-durable --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -repeat 3 -trace 1 -out set-a.json     # every workload
//	bash bench/run.sh -compare set-a.json set-b.json
//	bash bench/run.sh -list
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"oodb/internal/engine"
	"oodb/internal/ocb"
	wl "oodb/internal/workload"
)

// value and result are the shape of the last line of standard output.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		o       options
		name    = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs all five, each in a fresh child process")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (counters, traced run, probes)")
		repeat  = flag.Int("repeat", 3, "all-workloads mode: untraced runs per workload (median and min-max are reported)")
		out     = flag.String("out", "", "all-workloads mode: write every run's result to this JSON file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments: bench -compare A.json B.json")
		list    = flag.Bool("list", false, "print every metric with unit, clock, direction, bound and owning layer")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "wall-clock seconds one run of one workload measures for (oracle, probes and rounds together)")
	flag.IntVar(&o.sessions, "sessions", defaultSessions(), "concurrent sessions (default min(nproc, 4))")
	flag.StringVar(&o.dir, "dir", "", "data-directory root for the file workloads (default: a temporary directory under the working directory)")
	flag.BoolVar(&o.smoke, "smoke", false, "1/100 sizes, one round: a functional check, not a measurement")
	flag.Parse()

	switch {
	case *list:
		printMetrics(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		if o.sessions < 1 {
			fatal(fmt.Errorf("-sessions must be positive"))
		}
		cleanup, err := o.ensureDir()
		if err != nil {
			fatal(err)
		}
		ok, err := runMode(*name, o, *trace == 1, *repeat, *out)
		cleanup()
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// ensureDir makes the data-directory root; a root the harness invented is
// removed again by the returned cleanup.
func (o *options) ensureDir() (cleanup func(), err error) {
	if o.dir != "" {
		return func() {}, os.MkdirAll(o.dir, 0o755)
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	o.dir, err = os.MkdirTemp(wd, ".bench-data-")
	return func() { os.RemoveAll(o.dir) }, err
}

func runMode(name string, o options, traced bool, repeat int, out string) (ok bool, err error) {
	if name == "" {
		return runAll(o, traced, repeat, out)
	}
	w, found := findWorkload(name)
	if !found {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	res, failures, err := measure(w, o, traced)
	if err != nil {
		return false, err
	}
	printResult(os.Stdout, w, o, res, failures)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// measure is one run of one workload inside o.seconds of wall clock: the
// correctness oracle at smoke size, then rounds (one fresh engine each, every
// round on its own derived seed) until the budget is spent. An end-to-end
// metric is the steady() value over the rounds. The traced variant first runs
// the isolated probes, then alternates untraced and traced rounds — their
// throughput ratio is the tracing overhead.
func measure(w workload, o options, traced bool) (result, []string, error) {
	start := time.Now()
	digest, failures, err := oracle(w, o)
	if err != nil {
		return result{}, nil, err
	}
	extra := map[string]float64{"oracle.digest": digest}
	if traced {
		if err := timeGeneration(extra, w, o); err != nil {
			return result{}, nil, err
		}
		if err := runProbes(extra, o); err != nil {
			return result{}, nil, err
		}
	}

	minRounds := 3
	if o.smoke || traced {
		minRounds = 1
	}
	var plain, spans []*round
	for i := 0; len(plain) < minRounds || (!o.smoke && time.Since(start).Seconds() < o.seconds); i++ {
		ro := o
		ro.seed = roundSeed(o.seed, i)
		r, err := runRound(w, ro, nil)
		if err != nil {
			return result{}, nil, err
		}
		plain = append(plain, r)
		if traced {
			r, err := runRound(w, ro, new(tracer))
			if err != nil {
				return result{}, nil, err
			}
			spans = append(spans, r)
		}
	}
	res := result{Metrics: map[string]value{}, Failed: len(failures)}
	for _, r := range append(plain, spans...) {
		res.Attempted += r.attempted
		res.Failed += r.attempted - r.completed + len(r.failures)
		failures = append(failures, r.failures...)
	}
	res.Correct = res.Failed == 0

	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{steady(plain, m), m.Unit}
		}
		return res, failures, nil
	}

	setup, _ := median(plain, "setup_s")
	extra["engine.construct_s"] = setup - extra["workload.generate_s"] - extra["ocb.generate_s"]
	ops, _ := findMetric("ops_per_s")
	extra["trace.overhead_pct"] = (1 - steady(spans, ops)/steady(plain, ops)) * 100
	for _, m := range perLayer {
		v, ok := extra[m.Name]
		if !ok {
			v = layerValue(m, plain, spans)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return res, failures, writeTrace(w, o, res, failures)
}

// layerValue reads a per-layer metric off the untraced rounds, or off the
// traced ones when only the decorators measure it. A measurement is the
// median over rounds. A count or a simulated-clock value is a function of the
// seed, so it is read off round 0 alone: how many rounds fit into the budget
// must not move a number that repeats exactly.
func layerValue(m metric, plain, spans []*round) float64 {
	for _, rounds := range [][]*round{plain, spans} {
		if m.repeats() {
			rounds = rounds[:1]
		}
		if v, ok := median(rounds, m.Name); ok {
			return v
		}
	}
	return 0
}

// oracle is the correctness stage: at smoke size, a one-session run of w's
// configuration on the concurrent driver must reproduce the serial engine's
// logical-read digest and final-state digest at Users=1 (the repository's
// cross-engine oracle) — once plainly and once through the timing
// decorators, which proves they forward every capability.
func oracle(w workload, o options) (digest float64, failures []string, err error) {
	o.smoke, o.oracle, o.sessions = true, true, 1
	ref := w.sized(o)
	ref.Backend, ref.Fsync = "", ""
	e, err := engine.New(ref)
	if err != nil {
		return 0, nil, err
	}
	want, err := e.Run()
	if err := errors.Join(err, e.Close()); err != nil {
		return 0, nil, err
	}
	w.Serial = false
	for _, t := range []*tracer{nil, new(tracer)} {
		r, err := runRound(w, o, t)
		if err != nil {
			return 0, nil, err
		}
		how := "untraced"
		if t != nil {
			how = "traced"
		}
		r.check(r.logical == want.LogicalDigest, "oracle (%s): logical digest %016x, serial engine %016x", how, r.logical, want.LogicalDigest)
		r.check(r.final == want.FinalStateDigest, "oracle (%s): final-state digest %016x, serial engine %016x", how, r.final, want.FinalStateDigest)
		failures = append(failures, r.failures...)
	}
	return digest32(want.LogicalDigest, want.FinalStateDigest), failures, nil
}

// roundSeed derives round i's seed from the run's: every round of a run
// draws a different database and operation stream, so the median over rounds
// is a median over inputs too and one unlucky graph cannot colour a whole run.
func roundSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x >> 1)
}

// timeGeneration times the workload generator alone, by calling it directly
// with the arguments the engine constructor passes.
func timeGeneration(vals map[string]float64, w workload, o options) error {
	cfg := w.sized(o)
	vals["workload.generate_s"], vals["ocb.generate_s"] = 0, 0
	t0 := time.Now()
	if cfg.Workload == engine.WorkloadOCB {
		if _, err := ocb.Generate(cfg.OCB, cfg.DBBytes, cfg.PageSize, cfg.Seed); err != nil {
			return err
		}
		vals["ocb.generate_s"] = time.Since(t0).Seconds()
		return nil
	}
	spec := wl.DefaultDBSpec(cfg.Density, cfg.DBBytes)
	spec.Seed = cfg.Seed
	if _, err := wl.Generate(spec, cfg.PageSize); err != nil {
		return err
	}
	vals["workload.generate_s"] = time.Since(t0).Seconds()
	return nil
}

// writeTrace keeps the per-layer numbers of a traced run next to the data
// directories, for reading after the run.
func writeTrace(w workload, o options, res result, failures []string) error {
	doc := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Sessions int      `json:"sessions"`
		Failures []string `json:"failures"`
		Result   result   `json:"result"`
	}{w.Name, o.seed, o.sessions, failures, res}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.dir, "trace-"+w.Name+".json"), b, 0o644)
}

// printResult renders every metric by name with unit, clock, direction and
// bound, then the failed checks.
func printResult(out *os.File, w workload, o options, res result, failures []string) {
	fmt.Fprintf(out, "# %s  seed=%d sessions=%d smoke=%v\n", w.Name, o.seed, o.sessions, o.smoke)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, _ := findMetric(n)
		fmt.Fprintf(out, "%-32s %16.4f %-6s clock=%-4s better=%-6s %s\n",
			n, res.Metrics[n].Value, m.Unit, m.Clock, m.Better, boundText(m))
	}
	for _, f := range failures {
		fmt.Fprintln(out, "FAILED:", f)
	}
	fmt.Fprintf(out, "attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

func boundText(m metric) string {
	switch {
	case !m.Gated:
		return "ungated"
	case m.Bound == 0:
		return "bound=exact"
	}
	return fmt.Sprintf("bound=%g%%", m.Bound*100)
}
