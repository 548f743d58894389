// Command oodbsim regenerates the paper's experiments and drives single
// runs of the serial simulator or the concurrent wall-clock engine.
//
// Usage:
//
//	oodbsim -list
//	oodbsim -fig 3.2                                          # Section 3 OCT trace figure
//	oodbsim -fig 5.1 [-scale 0.05] [-txns 3000] [-seed 1] [-parallel 8] [-v]
//	oodbsim -table 5.1
//	oodbsim -all
//	oodbsim -run -density high-10 -rw 100 -cluster No_limit   # single run
//	oodbsim -run -workload ocb -ocb-dist clustered            # OCB benchmark run
//	oodbsim -run -clients 16 -workload ocb -ocb-rw 3          # 16 concurrent sessions, wall clock
//	oodbsim -run -clients 16 -rate 5000                       # open loop, 5000 txn/s aggregate
//	oodbsim -exp ocb.policies                                 # OCB experiment
//
// Experiment IDs follow the paper: fig3.2–fig3.4, fig5.1–fig5.14,
// table5.1, fig6.1, fig6.2, the ocb.* benchmark experiments, and the ext.*
// extension experiments. A flag the chosen mode would ignore is refused by
// name.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"oodb"
)

func main() {
	c, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if c.recoverDir != "" {
		st, err := oodb.RecoverDataDir(c.recoverDir)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovered %s: committed=%d records=%d applied=%d skipped=%d objects=%d pages=%d digest=%016x\n",
			c.recoverDir, st.Committed, st.Records, st.Applied, st.Skipped,
			st.Objects, st.Pages, st.Digest)
		return
	}
	if c.walDigestAt >= 0 {
		if c.dataDir == "" {
			fatal(fmt.Errorf("-wal-digest-at requires -data-dir"))
		}
		d, err := oodb.WALDigestAt(c.dataDir, c.walDigestAt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("digest=%016x\n", d)
		return
	}

	stop, err := startProfiles(c.cpuProf, c.memProf)
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop
	defer flushProfiles()

	if c.list {
		for _, id := range oodb.Experiments() {
			fmt.Println(id)
		}
		return
	}

	opt := oodb.ExperimentOptions{Scale: c.scale, Transactions: c.txns, Seed: c.seed, Replications: c.reps,
		Workers: c.par, CheckpointDir: c.ckptDir}
	if c.workload != "oct" {
		opt.Workload = c.workload
	}
	if c.verb {
		opt.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	if c.single {
		if err := c.run(); err != nil {
			fatal(err)
		}
		return
	}

	var ids []string
	switch {
	case c.all:
		ids = oodb.Experiments()
	case c.fig != "":
		ids = []string{"fig" + c.fig}
	case c.table != "":
		ids = []string{"table" + c.table}
	case c.ext != "":
		ids = []string{"ext." + c.ext}
	case c.exp != "":
		ids = []string{c.exp}
	default:
		flag.Usage()
		os.Exit(2)
	}

	tables, err := oodb.RunExperiments(ids, opt)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if c.asJSON {
			out, err := t.JSON()
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(out))
			continue
		}
		fmt.Println(t.Render())
	}
}

// cli is the whole command line: the -run flag set plus the mode,
// experiment and profiling flags.
type cli struct {
	*singleRun
	list, all, single, verb, asJSON bool
	fig, table, ext, exp, ckptDir   string
	reps, par, walDigestAt          int
	cpuProf, memProf, recoverDir    string
}

// sharedFlags are the runFlags the experiment modes read too; every other
// runFlags flag is -run's alone.
var sharedFlags = map[string]bool{"scale": true, "txns": true, "seed": true, "workload": true}

// experimentFlags are read by the experiment modes and never by -run.
var experimentFlags = map[string]bool{"json": true, "reps": true, "parallel": true, "v": true, "ckpt-dir": true}

// parseArgs registers every flag on fs, parses args, and refuses a flag the
// chosen mode would ignore, naming it — before any world is built.
func parseArgs(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{singleRun: runFlags(fs)}
	runOnly := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		if !sharedFlags[f.Name] {
			runOnly[f.Name] = true
		}
	})

	fs.BoolVar(&c.list, "list", false, "list experiment IDs and exit")
	fs.StringVar(&c.fig, "fig", "", "figure to regenerate (e.g. 5.1)")
	fs.StringVar(&c.table, "table", "", "table to regenerate (e.g. 5.1)")
	fs.StringVar(&c.ext, "ext", "", "extension experiment (e.g. buffersize)")
	fs.StringVar(&c.exp, "exp", "", "experiment by full registry id (e.g. ocb.policies)")
	fs.BoolVar(&c.all, "all", false, "run every registered experiment")
	fs.IntVar(&c.reps, "reps", 1, "replications per configuration (averaged)")
	fs.IntVar(&c.par, "parallel", 0, "worker pool size for simulation runs (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&c.verb, "v", false, "print per-run progress (concurrency-safe)")
	fs.BoolVar(&c.asJSON, "json", false, "emit tables as JSON instead of text")

	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile of the invocation to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile taken at exit to this file")

	fs.BoolVar(&c.single, "run", false, "run a single simulation (with -clients, on the concurrent engine) instead of an experiment")
	fs.StringVar(&c.ckptDir, "ckpt-dir", "", "experiments: cache each finished configuration's results here; a restarted batch runs only the configurations not yet cached")

	fs.StringVar(&c.recoverDir, "recover", "", "replay the write-ahead log in this data directory, print the recovered state, and exit")
	fs.IntVar(&c.walDigestAt, "wal-digest-at", -1, "with -data-dir: print the placement digest at the k-th WAL commit record and exit (0 = construction bootstrap)")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.markExplicit(fs)

	set := c.set
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch n := f.Name; {
		case err != nil:
		case runOnly[n] && !c.single && !(n == "data-dir" && set["wal-digest-at"]):
			err = fmt.Errorf("-%s applies only to -run", n)
		case experimentFlags[n] && c.single:
			err = fmt.Errorf("-%s applies only to experiments, not to -run", n)
		case (n == "think" || n == "rate") && !set["clients"]:
			err = fmt.Errorf("-%s needs -clients", n)
		case (n == "record" || n == "replay" || n == "no-locks") && set["clients"]:
			err = fmt.Errorf("-%s is serial-only; it cannot be combined with -clients", n)
		case n == "clients" && c.clients < 1:
			err = fmt.Errorf("-clients must be at least 1, got %d", c.clients)
		case strings.HasPrefix(n, "ocb-") && !set["tier"] && (c.workload == "" || c.workload == "oct"):
			// config reads the -ocb-* flags only for the OCB workload; a
			// tier refuses them itself.
			err = fmt.Errorf("-%s applies only to -workload ocb", n)
		case n == "scale" && !(c.scale > 0):
			// The library reads a scale of 0 as "its default", which is the
			// full paper database for -run and 0.02 for experiments.
			err = fmt.Errorf("-scale must be above 0, got %v", c.scale)
		case ocbCounts[n] && f.Value.(flag.Getter).Get().(int) < 0:
			err = fmt.Errorf("-%s must not be negative (0 = default), got %v", n, f.Value)
		case n == "ocb-rw" && !(c.ocbRW >= 0):
			err = fmt.Errorf("-ocb-rw must not be negative (0 = read-only), got %v", c.ocbRW)
		case n == "ocb-skew" && c.ocbSkew != 0 && !(c.ocbSkew > 1):
			err = fmt.Errorf("-ocb-skew must exceed 1 (0 = default 2), got %v", c.ocbSkew)
		}
	})
	if err == nil && set["record"] && set["replay"] {
		err = fmt.Errorf("-record and -replay are mutually exclusive")
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ocbCounts names the integer -ocb-* flags, where 0 means the default.
var ocbCounts = map[string]bool{
	"ocb-refs": true, "ocb-depth": true, "ocb-scan": true, "ocb-tenants": true, "ocb-drift": true,
}

// singleRun carries the -run flag set; -scale, -txns, -seed and -workload
// size experiments too.
type singleRun struct {
	scale              float64
	txns               int
	seed               int64
	density            string
	rw                 float64
	cluster, repl      string
	prefetch, strategy string
	record, replay     string

	workload   string
	ocbDist    string
	ocbRefs    int
	ocbDepth   int
	ocbScan    int
	ocbRW      float64
	ocbTenants int
	ocbSkew    float64
	ocbDrift   int

	flashFactor float64
	flashAt     int
	flashLen    int

	backend string
	dataDir string
	fsync   string

	warmup  int
	noLocks bool

	clients int // > 0 runs the concurrent driver with this many sessions
	think   time.Duration
	rate    float64

	tier string
	set  map[string]bool // flags the user passed explicitly
}

// runFlags registers the -run flag set on fs and returns the struct the
// parsed values land in. Call markExplicit after fs.Parse.
func runFlags(fs *flag.FlagSet) *singleRun {
	s := &singleRun{set: map[string]bool{}}
	fs.Float64Var(&s.scale, "scale", 0.05, "database/buffer scale relative to the paper's 500 MB / 1000 frames")
	fs.IntVar(&s.txns, "txns", 3000, "measured transactions per run")
	fs.Int64Var(&s.seed, "seed", 1, "random seed")
	fs.StringVar(&s.tier, "tier", "", "single run: scale tier (default | medium | large) — sets sizing and workload; explicit policy flags still override")

	fs.StringVar(&s.workload, "workload", "oct", "workload: oct (the paper's model) | ocb (synthetic object-base benchmark)")
	fs.StringVar(&s.ocbDist, "ocb-dist", "zipf", "ocb workload: reference distribution (uniform | zipf | clustered)")
	fs.IntVar(&s.ocbRefs, "ocb-refs", 0, "ocb workload: configuration references per object (0 = default)")
	fs.IntVar(&s.ocbDepth, "ocb-depth", 0, "ocb workload: traversal depth bound (0 = default)")
	fs.IntVar(&s.ocbScan, "ocb-scan", 0, "ocb workload: objects touched per set-oriented scan (0 = default)")
	fs.Float64Var(&s.ocbRW, "ocb-rw", 0, "ocb workload: reads per write (0 = read-only, the default)")
	fs.IntVar(&s.ocbTenants, "ocb-tenants", 0, "ocb workload: tenants sharing the object base under zipf-skewed traffic (0 = single tenant)")
	fs.Float64Var(&s.ocbSkew, "ocb-skew", 0, "ocb workload: tenant zipf skew, > 1 (0 = default 2)")
	fs.IntVar(&s.ocbDrift, "ocb-drift", 0, "ocb workload: working-set drift period in operations (0 = stationary)")

	fs.Float64Var(&s.flashFactor, "flash-factor", 0, "flash crowd: divide every user's think time by this while it lasts (0 or <= 1 = no flash)")
	fs.IntVar(&s.flashAt, "flash-at", 0, "flash crowd: issued-transaction index it starts at")
	fs.IntVar(&s.flashLen, "flash-len", 0, "flash crowd: duration in issued transactions")

	fs.StringVar(&s.density, "density", "med-5", "single run: low-3 | med-5 | high-10")
	fs.Float64Var(&s.rw, "rw", 10, "single run: read/write ratio")
	fs.StringVar(&s.cluster, "cluster", "No_limit", "single run: No_Cluster | Within_Buffer | 2_IO_limit | 10_IO_limit | No_limit")
	fs.StringVar(&s.repl, "repl", "LRU", "single run: paper name (LRU | Context | Random) or any registered policy (e.g. clock)")
	fs.StringVar(&s.prefetch, "prefetch", "none", "single run: none | buffer | db")
	fs.StringVar(&s.strategy, "strategy", "", "single run: clustering strategy by registry name (affinity | dstc | dro | noop; default affinity)")
	fs.StringVar(&s.record, "record", "", "single run: record the logical transaction stream to this trace file")
	fs.StringVar(&s.replay, "replay", "", "single run: drive the run from a recorded trace file instead of the generator")

	fs.StringVar(&s.backend, "backend", "", "single run: storage backend (memory | file; default memory)")
	fs.StringVar(&s.dataDir, "data-dir", "", "single run: data directory for -backend file (holds the write-ahead log)")
	fs.StringVar(&s.fsync, "fsync", "", "single run: WAL fsync policy for -backend file (always | interval | never; default always)")

	fs.IntVar(&s.warmup, "warmup", 0, "single run: leading transactions excluded from the statistics")
	fs.BoolVar(&s.noLocks, "no-locks", false, "single run: disable object-granularity locking, the serial simulator's model (refused with -clients)")

	fs.IntVar(&s.clients, "clients", 0, "single run: drive N concurrent client sessions over one shared store in wall-clock time (0 = the serial simulator)")
	fs.DurationVar(&s.think, "think", 0, "with -clients: closed loop, mean exponential think time between a client's transactions (0 = back-to-back)")
	fs.Float64Var(&s.rate, "rate", 0, "with -clients: open loop, aggregate arrival rate in txn/s (overrides -think)")
	return s
}

// markExplicit records which flags the user passed on the parsed fs: a
// tier lets only those override it.
func (s *singleRun) markExplicit(fs *flag.FlagSet) {
	fs.Visit(func(f *flag.Flag) { s.set[f.Name] = true })
}

// config maps the flag set onto a configuration: pick the base, then one
// overlay. A tier is a complete configuration, so only flags the user passed
// override it; without one every flag applies, defaults included.
func (s singleRun) config() (oodb.SimConfig, error) {
	var cfg oodb.SimConfig
	var err error
	if s.tier != "" {
		if cfg, err = oodb.TierSimConfig(s.tier); err != nil {
			return cfg, err
		}
		// Policy flags are orthogonal to tier sizing and still apply;
		// sizing and workload-shape flags are not — the tier defines both.
		for _, f := range []string{"scale", "workload", "density", "rw", "ocb-dist", "ocb-refs", "ocb-depth", "ocb-scan",
			"ocb-rw", "ocb-tenants", "ocb-skew", "ocb-drift"} {
			if s.set[f] {
				return cfg, fmt.Errorf("-tier defines the size and workload; -%s cannot be combined with it", f)
			}
		}
	} else {
		cfg = oodb.DefaultSimConfig(s.scale)
	}
	applies := func(flag string) bool { return s.tier == "" || s.set[flag] }

	if applies("txns") {
		cfg.Transactions = s.txns
	}
	if applies("seed") {
		cfg.Seed = s.seed
	}
	if applies("warmup") {
		cfg.Warmup = s.warmup
	}
	if applies("no-locks") {
		cfg.Locking = !s.noLocks
	}
	if applies("rw") {
		cfg.ReadWriteRatio = s.rw
	}
	if applies("density") {
		if cfg.Density, err = oodb.ParseDensity(s.density); err != nil {
			return cfg, err
		}
	}
	if applies("cluster") {
		if cfg.Cluster, err = oodb.ParseClusterPolicy(s.cluster); err != nil {
			return cfg, err
		}
	}
	if applies("repl") {
		if cfg.Replacement, err = oodb.ParseReplacement(s.repl); err != nil {
			return cfg, err
		}
	}
	if applies("prefetch") {
		if cfg.Prefetch, err = oodb.ParsePrefetchPolicy(s.prefetch); err != nil {
			return cfg, err
		}
	}
	if s.strategy != "" {
		if !oodb.HasClusterStrategy(s.strategy) {
			return cfg, fmt.Errorf("unknown cluster strategy %q (registered: %v)", s.strategy, oodb.ClusterStrategies())
		}
		cfg.ClusterStrategy = s.strategy
	}
	if s.workload != "" && s.workload != "oct" {
		cfg.Workload = s.workload
		cfg.OCB = oodb.DefaultOCBParams()
		if cfg.OCB.RefDist, err = oodb.ParseOCBRefDist(s.ocbDist); err != nil {
			return cfg, err
		}
		if s.ocbRefs > 0 {
			cfg.OCB.RefsPerObject = s.ocbRefs
		}
		if s.ocbDepth > 0 {
			cfg.OCB.Depth = s.ocbDepth
		}
		if s.ocbScan > 0 {
			cfg.OCB.ScanSample = s.ocbScan
		}
		if s.ocbRW > 0 {
			cfg.OCB.ReadWriteRatio = s.ocbRW
		}
		if s.ocbTenants > 0 {
			cfg.OCB.Tenants = s.ocbTenants
		}
		if s.ocbSkew > 0 {
			cfg.OCB.TenantSkew = s.ocbSkew
		}
		if s.ocbDrift > 0 {
			cfg.OCB.DriftPeriod = s.ocbDrift
		}
	}
	// Storage-backend and flash-crowd flags apply on top of any base;
	// Validate rejects inconsistent combinations (e.g. -fsync without
	// -backend file).
	cfg.Backend = s.backend
	cfg.DataDir = s.dataDir
	cfg.Fsync = s.fsync
	cfg.FlashFactor = s.flashFactor
	cfg.FlashAt = s.flashAt
	cfg.FlashLen = s.flashLen
	return cfg, nil
}

// concurrentOptions maps -clients, -think and -rate onto the concurrent
// driver's options.
func (s singleRun) concurrentOptions() oodb.ConcurrentOptions {
	return oodb.ConcurrentOptions{Sessions: s.clients, ThinkTime: s.think, ArrivalRate: s.rate}
}

func (s singleRun) run() (err error) {
	cfg, err := s.config()
	if err != nil {
		return err
	}
	if s.clients > 0 {
		return runConcurrent(cfg, s.concurrentOptions())
	}
	if s.record != "" {
		f, cerr := os.Create(s.record)
		if cerr != nil {
			return cerr
		}
		// The trace is written through this handle; a close failure means a
		// truncated trace, so it must surface as the command's error.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Record = f
	}
	if s.replay != "" {
		f, oerr := os.Open(s.replay)
		if oerr != nil {
			return oerr
		}
		defer f.Close() // errscan:ok read-only trace handle
		cfg.Replay = f
	}

	res, err := oodb.RunSimulation(cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	fmt.Printf("  digest=%016x\n", res.LogicalDigest)
	if res.WriteTxns > 0 || res.ConservationViolations > 0 || res.RatioChangesIgnored > 0 {
		fmt.Printf("  writes=%d p99(w)=%.4fs final-state=%016x objects(live/placed)=%d/%d conserve-violations=%d ratio-ignored=%d\n",
			res.WriteTxns, res.P99WriteResponse, res.FinalStateDigest,
			res.LiveObjects, res.PlacedObjects, res.ConservationViolations, res.RatioChangesIgnored)
	}
	fmt.Printf("  mean disk util=%.3f cpu util=%.3f log-disk util=%.3f sim time=%.1fs throughput=%.2f txn/s\n",
		res.MeanDiskUtil, res.CPUUtil, res.LogDiskUtil, res.SimTime, res.Throughput)
	fmt.Print(res.LayerLines())
	return nil
}

// runConcurrent runs the concurrent driver: N client goroutines over one
// shared buffer pool, log and storage backend, in wall-clock time.
// Closed loop (-think) models interactive sessions; open loop (-rate)
// measures latency from each transaction's intended arrival, so a saturated
// system reports its queueing delay instead of suppressing arrivals.
func runConcurrent(cfg oodb.SimConfig, opt oodb.ConcurrentOptions) error {
	res, err := oodb.RunConcurrentLoad(cfg, opt)
	if err != nil {
		return err
	}
	fmt.Println(res.String())
	fmt.Printf("  latency: mean=%s p50=%s p90=%s p99=%s p999=%s max=%s (n=%d)\n",
		us(int64(res.Latency.Mean())), us(res.Latency.Quantile(0.50)),
		us(res.Latency.Quantile(0.90)), us(res.Latency.Quantile(0.99)),
		us(res.Latency.Quantile(0.999)), us(res.Latency.Max()), res.Latency.N())
	fmt.Printf("  logical: ops=%d not-found=%d  physical: reads=%d writes=%d log=%d background=%d\n",
		res.LogicalOps, res.NotFoundReads, res.PhysReads, res.PhysWrites, res.LogIOs, res.BackgroundIOs)
	fmt.Print(res.LayerLines())
	fmt.Printf("  digest: %016x\n", res.LogicalDigest)
	if wt := res.KindCount["ocb-insert"] + res.KindCount["ocb-delete"] +
		res.KindCount["ocb-update"] + res.KindCount["ocb-rewire"]; wt > 0 || res.ConservationViolations > 0 {
		fmt.Printf("  writes: ocb=%d final-state=%016x objects(live/placed)=%d/%d conserve-violations=%d\n",
			wt, res.FinalStateDigest, res.LiveObjects, res.PlacedObjects, res.ConservationViolations)
	}
	return nil
}

// us renders a microsecond count as a duration.
func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

func fatal(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "oodbsim:", err)
	os.Exit(1)
}
