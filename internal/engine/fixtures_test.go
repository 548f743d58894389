package engine

import (
	"sync"
	"testing"
)

// The engine tests' named worlds, one table so a size is picked, not
// invented. Building a database under its clustering policy is most of what
// these tests cost, so a row's world is built once per test binary, on first
// use, and each run takes a clone (Template.Engine) that starts where a fresh
// build would (TestCloneRunsLikeFreshBuild). A run may change any run field
// of Config's phase table; a generation or construction field makes another
// world, which Template.Engine refuses, failing the test.
//
// The four rows are the only worlds the binary keeps, until it exits:
// keeping every world the tests build costs ten times the peak memory. A
// world one test runs several times is that test's own newFixture, gone
// when the test ends; a world run once is built by New. Heap and allocation
// gates, the fresh-build legs of the clone and construction gates, the
// concurrent driver and the file backend always build afresh.
var (
	// octSmall is OCT at 2 %, DefaultConfig(0.02): ~10 MB in 20 buffers,
	// medium density, No_Limit + Linear_Split, LRU. Use for: OCT under any
	// run field, and the serial leg of the cross-engine gates. Not for:
	// another density, policy, strategy, seed or scale.
	octSmall = newFixture(DefaultConfig(0.02))
	// octTiny is OCT at 1 %: ~5 MB in 10 buffers. Use for: operations
	// driven through Execute, the registry seams, the smoke run. Not for:
	// comparing policies, which its pool is too small to tell apart.
	octTiny = newFixture(DefaultConfig(0.01))
	// ocbSmall is octSmall's size under read-only OCB. Use for: OCB
	// determinism, record/replay, per-kind accounting. Not for: writes;
	// every OCB parameter, the write ratio too, is a generation field.
	ocbSmall = newFixture(ocbAt(DefaultConfig(0.02), 0))
	// ocbWrites is ocbSmall at OCB R/W 2. Use for: the OCB write kinds and
	// placement under writes. Not for: another write ratio.
	ocbWrites = newFixture(ocbAt(DefaultConfig(0.02), 2))
)

// reorgStreams are the write-heavy streams on which each dynamic strategy
// must reorganize. dstc's heat windows consolidate under any sustained mix;
// dro's sweep needs deletions concentrated on a small base to drag pages
// below its load floor. The strategy is a construction field, so each test
// builds these worlds itself.
var reorgStreams = map[string]Config{
	"dstc": noLocking(ocbAt(DefaultConfig(0.02), 1.5), 900),
	"dro":  noLocking(ocbAt(DefaultConfig(0.005), 1), 2000),
}

// dynamicStreams are the rows' streams the dynamic-strategy gates run, the
// write stream with locking off so it executes synchronously and digests
// compare across strategies.
func dynamicStreams(txns int) map[string]Config {
	return map[string]Config{
		"oct":       octSmall.config(txns),
		"ocb":       ocbSmall.config(txns),
		"ocb-write": noLocking(ocbWrites.cfg, txns),
	}
}

// ocbAt returns cfg under the OCB workload at read/write ratio rw.
func ocbAt(cfg Config, rw float64) Config {
	cfg.Workload = WorkloadOCB
	cfg.OCB.ReadWriteRatio = rw
	return cfg
}

// noLocking returns cfg running txns transactions with locking off.
func noLocking(cfg Config, txns int) Config {
	cfg.Locking, cfg.Transactions = false, txns
	return cfg
}

// fixture is a named world, built on first use and cloned for each engine.
type fixture struct {
	cfg  Config
	tmpl func() (*Template, error)
}

func newFixture(cfg Config) *fixture {
	return &fixture{cfg: cfg, tmpl: sync.OnceValues(func() (*Template, error) { return NewTemplate(cfg) })}
}

// config returns the fixture's configuration running txns transactions.
func (f *fixture) config(txns int) Config {
	cfg := f.cfg
	cfg.Transactions = txns
	return cfg
}

// engine returns an engine for cfg on a clone of f's world; a cfg that
// builds another world fails the test.
func (f *fixture) engine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	tmpl, err := f.tmpl()
	if err != nil {
		t.Fatalf("building %s: %v", f.cfg.Label(), err)
	}
	e, err := tmpl.Engine(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Label(), err)
	}
	return e
}

// run is the package's run on a clone of f's world.
func (f *fixture) run(t *testing.T, cfg Config) Results {
	t.Helper()
	return finish(t, f.engine(t, cfg))
}

// fresh builds cfg's serial engine afresh.
func fresh(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// run runs a fresh build of cfg (see finish).
func run(t *testing.T, cfg Config) Results {
	t.Helper()
	return finish(t, fresh(t, cfg))
}

// finish runs e to completion, checks the store's invariants and closes
// the engine, so a persistent data directory is left checkpointed and
// recoverable.
func finish(t *testing.T, e *Engine) Results {
	t.Helper()
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
