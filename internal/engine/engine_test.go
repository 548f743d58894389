package engine

import (
	"math"
	"strings"
	"testing"

	"oodb/internal/core"
	"oodb/internal/workload"
)

// quickConfig is a small-but-meaningful configuration for tests.
func quickConfig(txns int) Config {
	cfg := DefaultConfig(0.02)
	cfg.Transactions = txns
	return cfg
}

// run builds cfg's serial engine, runs it to completion, checks the
// store's invariants and closes the engine, so a persistent data directory
// is left checkpointed and recoverable.
func run(t *testing.T, cfg Config) Results {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatalf("storage invariants after run: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	// Each case invalidates exactly one field; the error must name it, so a
	// misconfigured run fails with a diagnosis rather than a generic refusal.
	bad := []struct {
		field  string
		mutate func(*Config)
	}{
		{"DBBytes", func(c *Config) { c.DBBytes = 0 }},
		{"PageSize", func(c *Config) { c.PageSize = -1 }},
		{"Users", func(c *Config) { c.Users = 0 }},
		{"Disks", func(c *Config) { c.Disks = 0 }},
		{"Buffers", func(c *Config) { c.Buffers = 0 }},
		{"Transactions", func(c *Config) { c.Transactions = 0 }},
		{"ReadWriteRatio", func(c *Config) { c.ReadWriteRatio = 0 }},
		{"replacement policy", func(c *Config) { c.ReplacementName = "bogus" }},
		{"cluster strategy", func(c *Config) { c.ClusterStrategy = "bogus" }},
	}
	for _, tc := range bad {
		cfg := quickConfig(10)
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	if err := quickConfig(10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if !strings.Contains(quickConfig(10).Label(), "med5") {
		t.Error("label missing density")
	}
	// Registered names pass validation without constructing an engine.
	cfg := quickConfig(10)
	cfg.ReplacementName = "clock"
	cfg.ClusterStrategy = "noop"
	if err := cfg.Validate(); err != nil {
		t.Errorf("registry names rejected: %v", err)
	}
}

// TestConfigRefusesOutOfRangeEnums: an enum value past the last one would
// run as some other value (Hints 3 as NoHints, sharing its Fingerprint), so
// each is refused naming the field; the last valid value of each passes.
func TestConfigRefusesOutOfRangeEnums(t *testing.T) {
	for _, tc := range []struct {
		field     string
		last, bad func(*Config)
	}{
		{"Density",
			func(c *Config) { c.Density = workload.HighDensity },
			func(c *Config) { c.Density = workload.HighDensity + 1 }},
		{"Cluster",
			func(c *Config) { c.Cluster = core.PolicyNoLimit },
			func(c *Config) { c.Cluster.Mode = core.ClusterNoLimit + 1 }},
		{"Cluster",
			func(c *Config) { c.Cluster = core.PolicyIOLimit2 },
			func(c *Config) { c.Cluster = core.ClusterPolicy{Mode: core.ClusterIOLimit, IOLimit: -1} }},
		{"Split",
			func(c *Config) { c.Split = core.NPSplit },
			func(c *Config) { c.Split = 9 }},
		{"Hints",
			func(c *Config) { c.Hints = core.UserHints },
			func(c *Config) { c.Hints = core.HintPolicy(3) }},
		{"Replacement",
			func(c *Config) { c.Replacement = core.ReplRandom },
			func(c *Config) { c.Replacement = core.ReplRandom + 1 }},
		{"Prefetch",
			func(c *Config) { c.Prefetch = core.PrefetchWithinDB },
			func(c *Config) { c.Prefetch = core.PrefetchWithinDB + 1 }},
	} {
		cfg := quickConfig(10)
		tc.last(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: last valid value refused: %v", tc.field, err)
		}
		cfg = quickConfig(10)
		tc.bad(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field+" ") {
			t.Errorf("%s: out-of-range value: got %v, want an error naming the field", tc.field, err)
		}
	}
}

func TestDefaultConfigScaling(t *testing.T) {
	full := DefaultConfig(1.0)
	if full.DBBytes != 500<<20 || full.Buffers != 1000 {
		t.Fatalf("paper config: %d bytes, %d buffers", full.DBBytes, full.Buffers)
	}
	tenth := DefaultConfig(0.1)
	if tenth.DBBytes != 50<<20 || tenth.Buffers != 100 {
		t.Fatalf("scaled config: %d bytes, %d buffers", tenth.DBBytes, tenth.Buffers)
	}
	// Ratio preserved.
	if float64(tenth.Buffers)/float64(tenth.DBBytes) != float64(full.Buffers)/float64(full.DBBytes) {
		t.Fatal("buffer/db ratio not preserved")
	}
	tiny := DefaultConfig(0.0001)
	if tiny.Buffers < 8 || tiny.DBBytes < 64<<10 {
		t.Fatal("floors not applied")
	}
}

func TestRunCompletesRequestedTransactions(t *testing.T) {
	cfg := quickConfig(400)
	res := run(t, cfg)
	if res.Completed < cfg.Transactions {
		t.Fatalf("completed %d of %d", res.Completed, cfg.Transactions)
	}
	if res.MeanResponse <= 0 || res.SimTime <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate results: %+v", res)
	}
	if res.ReadTxns+res.WriteTxns != res.Completed {
		t.Fatal("read/write split does not sum")
	}
	if res.HitRatio <= 0 || res.HitRatio >= 1 {
		t.Fatalf("hit ratio %v", res.HitRatio)
	}
	if res.LogIOs == 0 {
		t.Fatal("no transaction logging I/O recorded")
	}
	if res.LogDiskUtil <= 0 {
		t.Fatal("log disk never used")
	}
	if res.CPUUtil <= 0 || res.MeanDiskUtil <= 0 {
		t.Fatal("stations unused")
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := quickConfig(300)
	a := run(t, cfg)
	b := run(t, cfg)
	if a.MeanResponse != b.MeanResponse || a.PhysReads != b.PhysReads ||
		a.LogIOs != b.LogIOs || a.Completed != b.Completed {
		t.Fatalf("replay diverged:\n%v\n%v", a, b)
	}
}

// TestSerialRunPinned pins the timed serial run against constants, where
// TestDeterministicReplay only checks two runs against each other. The
// event loop's continuations decide when every request reaches a station
// and every lock waiter resumes; a change to them that moved one event
// would move the mean response bits or the event count here. The cases
// cover the default tier, an OCT write mix whose lock conflicts run the
// grant path, and a phased-R/W run.
func TestSerialRunPinned(t *testing.T) {
	t.Parallel()
	def, err := TierConfig(TierDefault)
	if err != nil {
		t.Fatal(err)
	}
	def.Transactions = 3000
	writes := DefaultConfig(0.02)
	writes.ReadWriteRatio = 2
	writes.Transactions = 1500
	phased := quickConfig(1000)
	phased.PhasedRW = []float64{100, 2}
	for _, tc := range []struct {
		name       string
		cfg        Config
		meanBits   uint64
		events     uint64
		logical    uint64
		final      uint64
		reads      int
		physWrites int
		conflicts  bool
	}{
		{"default-tier", def, 0x3fb586c094d208d6, 14998, 0x709bf0910f6ea2d3, 0x78991fe4bfc01e59, 8140, 430, false},
		{"oct-writes", writes, 0x3fba26fc5352284f, 8606, 0x3a64111fb34cb4d7, 0x6d04a948c1eb30d1, 4095, 733, true},
		{"phased-rw", phased, 0x3fb72f23353d418f, 5253, 0x68b2015427bf6c6b, 0xd464d077d14bd7fb, 2723, 264, false},
	} {
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.conflicts && r.Locks.Conflicts == 0 {
			t.Errorf("%s: no lock conflicts; the grant path never ran", tc.name)
		}
		if got := math.Float64bits(r.MeanResponse); got != tc.meanBits {
			t.Errorf("%s: mean response %v (%#x), want %v (%#x)",
				tc.name, r.MeanResponse, got, math.Float64frombits(tc.meanBits), tc.meanBits)
		}
		if got := e.EventsExecuted(); got != tc.events {
			t.Errorf("%s: %d events, want %d", tc.name, got, tc.events)
		}
		if r.LogicalDigest != tc.logical || r.FinalStateDigest != tc.final {
			t.Errorf("%s: digests logical %#x final %#x, want %#x %#x",
				tc.name, r.LogicalDigest, r.FinalStateDigest, tc.logical, tc.final)
		}
		if r.PhysReads != tc.reads || r.PhysWrites != tc.physWrites {
			t.Errorf("%s: %d reads %d writes, want %d %d",
				tc.name, r.PhysReads, r.PhysWrites, tc.reads, tc.physWrites)
		}
	}
}

// TestSerialTxnAllocs: a steady-state serial transaction allocates at most
// once on average. Stations, users and the log bind their continuations and
// recycle their buffers, so the one allocation left is appendLockSet's
// sort.Slice, whose interface conversion boxes the lock set. It stays until
// the slices.SortFunc variant that removes it is shown not to cost the
// concurrent workloads write-path p99 (docs/perf-log.md). AllocsPerRun's
// integer average also absorbs the rarer allocations a write makes
// creating an object.
func TestSerialTxnAllocs(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's allocations.
	cfg, err := TierConfig(TierDefault)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transactions = 20000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunN(3000); err != nil { // warm calendars, queues and buffers
		t.Fatal(err)
	}
	a := testing.AllocsPerRun(2000, func() {
		if n, err := e.RunN(1); n != 1 || err != nil {
			t.Fatalf("RunN(1) = %d, %v", n, err)
		}
	})
	if a > 1 {
		t.Fatalf("%v allocations per serial transaction, want <= 1", a)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := quickConfig(300)
	a := run(t, cfg)
	cfg.Seed = 2
	b := run(t, cfg)
	if a.MeanResponse == b.MeanResponse && a.PhysReads == b.PhysReads {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestClusteringHeadline asserts the paper's core result: at high structure
// density and high read/write ratio, run-time clustering substantially
// improves mean response time over no clustering (Figure 5.1).
func TestClusteringHeadline(t *testing.T) {
	base := quickConfig(1200)
	base.Density = workload.HighDensity
	base.ReadWriteRatio = 100
	base.Split = core.NoSplit

	noCluster := base
	noCluster.Cluster = core.PolicyNoCluster
	rn := run(t, noCluster)

	clustered := base
	clustered.Cluster = core.PolicyNoLimit
	rc := run(t, clustered)

	if rc.MeanResponse >= rn.MeanResponse {
		t.Fatalf("clustering did not help: %v vs %v", rc.MeanResponse, rn.MeanResponse)
	}
	if ratio := rn.MeanResponse / rc.MeanResponse; ratio < 1.3 {
		t.Fatalf("improvement ratio %.2f below expectation", ratio)
	}
	if rc.HitRatio <= rn.HitRatio {
		t.Fatalf("clustering should raise the hit ratio: %v vs %v", rc.HitRatio, rn.HitRatio)
	}
}

// TestClusteringDegradesWriters asserts the flip side the paper discusses:
// clustering costs writers (candidate searches, moves, splits).
func TestClusteringDegradesWriters(t *testing.T) {
	base := quickConfig(1500)
	base.Density = workload.HighDensity
	base.ReadWriteRatio = 5
	base.Split = core.NoSplit

	noCluster := base
	noCluster.Cluster = core.PolicyNoCluster
	rn := run(t, noCluster)

	clustered := base
	clustered.Cluster = core.PolicyNoLimit
	rc := run(t, clustered)

	if rc.WriteResponse <= rn.WriteResponse {
		t.Fatalf("unlimited clustering should cost writers: %v vs %v",
			rc.WriteResponse, rn.WriteResponse)
	}
	if rc.Cluster.CandidateIOs == 0 {
		t.Fatal("no candidate I/Os recorded")
	}
}

// TestWithinBufferNoCandidateIOs asserts the Within_Buffer invariant at the
// engine level.
func TestWithinBufferNoCandidateIOs(t *testing.T) {
	cfg := quickConfig(500)
	cfg.Cluster = core.PolicyWithinBuffer
	res := run(t, cfg)
	if res.Cluster.CandidateIOs != 0 {
		t.Fatalf("Within_Buffer spent %d candidate I/Os", res.Cluster.CandidateIOs)
	}
}

// TestIOLimitRespected: candidate I/Os per placement never exceed the limit.
func TestIOLimitRespected(t *testing.T) {
	cfg := quickConfig(800)
	cfg.Cluster = core.PolicyIOLimit2
	res := run(t, cfg)
	ops := res.Cluster.Placements + res.Cluster.Reclusterings
	if ops == 0 {
		t.Fatal("no clustering activity")
	}
	if res.Cluster.CandidateIOs > 2*ops {
		t.Fatalf("candidate I/Os %d exceed %d placements x 2",
			res.Cluster.CandidateIOs, ops)
	}
}

// TestLoggingCoalescing asserts Figure 5.5's direction: clustering reduces
// physical logging I/Os per transaction by coalescing same-page updates.
func TestLoggingCoalescing(t *testing.T) {
	base := quickConfig(1500)
	base.Density = workload.MedDensity
	base.ReadWriteRatio = 5

	noCluster := base
	noCluster.Cluster = core.PolicyNoCluster
	rn := run(t, noCluster)

	clustered := base
	clustered.Cluster = core.PolicyNoLimit
	rc := run(t, clustered)

	perTxnN := float64(rn.Log.IOs()) / float64(rn.Completed)
	perTxnC := float64(rc.Log.IOs()) / float64(rc.Completed)
	if perTxnC > perTxnN*1.05 {
		t.Fatalf("clustering increased logging I/Os: %.3f vs %.3f", perTxnC, perTxnN)
	}
}

// TestPrefetchBackground: within-DB prefetch produces background I/Os;
// the other policies produce none.
func TestPrefetchBackground(t *testing.T) {
	cfg := quickConfig(400)
	cfg.Prefetch = core.PrefetchWithinDB
	res := run(t, cfg)
	if res.BackgroundIOs == 0 {
		t.Fatal("within-DB prefetch issued no background I/O")
	}
	cfg.Prefetch = core.PrefetchWithinBuffer
	res = run(t, cfg)
	if res.BackgroundIOs != 0 {
		t.Fatal("within-buffer prefetch must not issue I/O")
	}
	cfg.Prefetch = core.NoPrefetch
	res = run(t, cfg)
	if res.BackgroundIOs != 0 {
		t.Fatal("no-prefetch issued I/O")
	}
}

// TestReplacementPoliciesRun exercises all three replacement policies.
func TestReplacementPoliciesRun(t *testing.T) {
	for _, repl := range []core.Replacement{core.ReplLRU, core.ReplContext, core.ReplRandom} {
		cfg := quickConfig(300)
		cfg.Replacement = repl
		res := run(t, cfg)
		if res.Completed < cfg.Transactions {
			t.Fatalf("%v: completed %d", repl, res.Completed)
		}
	}
}

// TestSplitPoliciesRun exercises the split paths and checks the Figure 5.10
// invariant on live data: the optimal cut total never exceeds the greedy's.
// Only NP_Split runs the comparison, so it must have compared some splits
// for the invariant to mean anything; Linear_Split compares none.
func TestSplitPoliciesRun(t *testing.T) {
	for _, sp := range []core.SplitPolicy{core.NoSplit, core.LinearSplit, core.NPSplit} {
		cfg := quickConfig(1000)
		cfg.Density = workload.HighDensity
		cfg.ReadWriteRatio = 5
		cfg.Split = sp
		res := run(t, cfg)
		cs := res.Cluster
		if sp == core.NoSplit && cs.Splits != 0 {
			t.Fatalf("NoSplit performed %d splits", cs.Splits)
		}
		if sp == core.NPSplit && cs.SplitsCompared == 0 {
			t.Fatalf("NP_Split compared no splits: %+v", cs)
		}
		if sp != core.NPSplit && cs.SplitsCompared != 0 {
			t.Fatalf("%v compared %d splits; only NP_Split runs the comparison", sp, cs.SplitsCompared)
		}
		if cs.OptimalCutTotal > cs.GreedyCutTotal+1e-9 {
			t.Fatalf("%v: optimal cut total %.3f exceeds greedy %.3f",
				sp, cs.OptimalCutTotal, cs.GreedyCutTotal)
		}
	}
}

// TestUserHintsRun exercises the hint path end to end.
func TestUserHintsRun(t *testing.T) {
	cfg := quickConfig(400)
	cfg.Hints = core.UserHints
	res := run(t, cfg)
	if res.Completed < cfg.Transactions {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestAllQueryKindsExecuted: with enough transactions every query kind runs
// at least once — the OCT kinds under the OCT workload, the OCB kinds under
// the OCB workload.
func TestAllQueryKindsExecuted(t *testing.T) {
	t.Parallel()
	cfg := quickConfig(3000)
	cfg.ReadWriteRatio = 5 // enough writes for the write kinds
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for k := workload.QueryKind(0); k < workload.QOCBScan; k++ {
		if e.metrics.perKindCount[k] == 0 {
			t.Errorf("query kind %v never executed", k)
		}
	}

	ocbCfg := quickConfig(800)
	ocbCfg.Workload = WorkloadOCB
	ocbCfg.OCB.ReadWriteRatio = 3 // enable the OCB write kinds
	e2, err := New(ocbCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	for k := workload.QOCBScan; k < workload.NumQueryKinds; k++ {
		if e2.metrics.perKindCount[k] == 0 {
			t.Errorf("query kind %v never executed under the OCB workload", k)
		}
	}
}

// TestConstructionColocation: the clustered database physically co-locates
// component sets while the unclustered one scatters them.
func TestConstructionColocation(t *testing.T) {
	spread := func(cl core.ClusterPolicy) float64 {
		cfg := quickConfig(1)
		cfg.Density = workload.HighDensity
		cfg.Cluster = cl
		cfg.Split = core.NoSplit
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, n := componentSpread(e, e.db.Blocks)
		if n == 0 {
			t.Fatal("no composites to measure")
		}
		return s
	}
	sn := spread(core.PolicyNoCluster)
	sc := spread(core.PolicyNoLimit)
	if sc >= sn*0.7 {
		t.Fatalf("clustered spread %.2f not clearly below unclustered %.2f", sc, sn)
	}
}

// TestLargerScaleSmoke runs a scale-0.1 configuration end to end (slow-ish,
// skipped in -short).
func TestLargerScaleSmoke(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("large-scale smoke test")
	}
	cfg := DefaultConfig(0.1)
	cfg.Transactions = 800
	res := run(t, cfg)
	if res.Completed < cfg.Transactions {
		t.Fatalf("completed %d", res.Completed)
	}
}

// TestPhasedRWChangesMix: the phased extension actually swings the
// generated read/write mix across the run.
func TestPhasedRWChangesMix(t *testing.T) {
	cfg := quickConfig(1000)
	cfg.PhasedRW = []float64{100, 2}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With half the run at rw=2, writes are ~1/6 of transactions overall —
	// far above the rw=100 baseline's ~1%.
	frac := float64(res.WriteTxns) / float64(res.Completed)
	if frac < 0.08 {
		t.Fatalf("write fraction %.3f; phases apparently ignored", frac)
	}
}

// TestAdaptiveClusteringSwitches: the adaptive policy reacts to phase
// changes by switching the clustering policy.
func TestAdaptiveClusteringSwitches(t *testing.T) {
	cfg := quickConfig(2000)
	cfg.Density = workload.HighDensity
	cfg.PhasedRW = []float64{100, 2, 100, 2}
	cfg.AdaptiveClustering = true
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AdaptiveSwitches == 0 {
		t.Fatal("adaptive clustering never switched policies")
	}
	if res.AdaptiveSwitches > 50 {
		t.Fatalf("adaptive clustering thrashing: %d switches", res.AdaptiveSwitches)
	}
}

// TestLockingIntegration: with locking on (the default), conflicts occur
// under hot-set contention, the lock table drains by end of run, and
// disabling locking still runs.
func TestLockingIntegration(t *testing.T) {
	cfg := quickConfig(1500)
	cfg.ReadWriteRatio = 5 // writes take exclusive locks
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Locks.Requests == 0 {
		t.Fatal("locking enabled but no lock requests")
	}
	if err := e.locks.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if e.locks.Locked() != 0 {
		t.Fatalf("%d objects still locked after drain", e.locks.Locked())
	}

	cfg.Locking = false
	res2 := run(t, cfg)
	if res2.Locks.Requests != 0 {
		t.Fatal("locking disabled but requests recorded")
	}
}

// TestWarmupExcluded: warmup transactions execute but are not measured.
func TestWarmupExcluded(t *testing.T) {
	cfg := quickConfig(300)
	cfg.Warmup = 100
	res := run(t, cfg)
	if res.Completed != cfg.Transactions {
		t.Fatalf("measured %d, want exactly %d post-warmup", res.Completed, cfg.Transactions)
	}
	total := 0
	for _, n := range res.KindCount {
		total += n
	}
	if total != res.Completed {
		t.Fatalf("per-kind counts %d != completed %d", total, res.Completed)
	}
	for kind, mean := range res.KindResponse {
		if mean <= 0 {
			t.Fatalf("kind %s mean %v", kind, mean)
		}
	}
}

// TestIOConservation: without prefetch or warmup, every physical data read
// the metrics charge corresponds to exactly one buffer-pool miss — the
// engine neither invents nor drops I/Os.
func TestIOConservation(t *testing.T) {
	cfg := quickConfig(800)
	cfg.Prefetch = core.NoPrefetch
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	misses := e.frames.Stats().Misses
	if res.PhysReads != misses {
		t.Fatalf("physical reads %d != pool misses %d", res.PhysReads, misses)
	}
	// Flush writes are bounded by evictions of dirty pages.
	if res.PhysWrites > e.frames.Stats().Flushes+res.Cluster.Splits {
		t.Fatalf("physical writes %d exceed flushes %d + split flushes %d",
			res.PhysWrites, e.frames.Stats().Flushes, res.Cluster.Splits)
	}
}
