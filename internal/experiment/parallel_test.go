package experiment

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oodb/internal/engine"
	"oodb/internal/golden"
	"oodb/internal/workload"
)

// parOptions forces a wide worker pool regardless of GOMAXPROCS so the
// concurrency paths are exercised even on single-CPU machines.
func parOptions() Options {
	o := tinyOptions()
	o.Workers = 4
	return o
}

// sweepConfigs builds a small set of distinct configurations.
func sweepConfigs(h *Harness, n int) []engine.Config {
	var cfgs []engine.Config
	for _, d := range workload.Densities {
		for _, rw := range []float64{2, 5, 10, 50, 100} {
			cfg := h.clusteringBase()
			cfg.Density = d
			cfg.ReadWriteRatio = rw
			cfgs = append(cfgs, cfg)
			if len(cfgs) == n {
				return cfgs
			}
		}
	}
	return cfgs
}

// RunConfigs must return results in input order: each batch result must
// equal the (memoized) result of running its configuration individually.
func TestRunConfigsInputOrder(t *testing.T) {
	h := NewHarness(parOptions())
	cfgs := sweepConfigs(h, 6)
	// Reverse-ish shuffle so input order differs from any natural sweep order.
	for i, j := 0, len(cfgs)-1; i < j; i, j = i+1, j-1 {
		cfgs[i], cfgs[j] = cfgs[j], cfgs[i]
	}
	res, err := h.RunConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cfgs) {
		t.Fatalf("got %d results for %d configs", len(res), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := h.Run(cfg) // cache hit: the batch's result for cfg
		if err != nil {
			t.Fatal(err)
		}
		if res[i].MeanResponse != want.MeanResponse || res[i].Completed != want.Completed {
			t.Fatalf("result %d out of order: batch %v, direct %v",
				i, res[i].MeanResponse, want.MeanResponse)
		}
	}
}

// A configuration requested several times in one racing batch must execute
// exactly once (in-flight deduplication), and everyone shares the result.
func TestRunConfigsInflightDedup(t *testing.T) {
	h := NewHarness(parOptions())
	cfg := h.baseConfig()
	cfgs := make([]engine.Config, 8)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	res, err := h.RunConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Executed(); got != 1 {
		t.Fatalf("duplicate config executed %d times, want 1", got)
	}
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[i], res[0]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
}

// Concurrent direct Run calls for the same configuration must also dedup:
// this is the singleflight guarantee independent of RunConfigs.
func TestRunConcurrentCallersDedup(t *testing.T) {
	h := NewHarness(parOptions())
	cfg := h.baseConfig()
	const callers = 8
	results := make([]engine.Results, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = h.Run(cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d got a different result", i)
		}
	}
	if got := h.Executed(); got != 1 {
		t.Fatalf("concurrent callers executed %d runs, want 1", got)
	}
}

// An invalid configuration's error must propagate out of the batch while
// the valid configurations still complete.
func TestRunConfigsErrorPropagation(t *testing.T) {
	h := NewHarness(parOptions())
	good := h.baseConfig()
	bad := h.baseConfig()
	bad.Buffers = -1 // rejected by engine validation
	if _, err := h.RunConfigs([]engine.Config{good, bad, good}); err == nil {
		t.Fatal("batch with failing config returned nil error")
	}
	// The failing run must not poison the cache: a later run of the good
	// config succeeds and the bad one fails again.
	if _, err := h.Run(good); err != nil {
		t.Fatalf("good config failed after batch error: %v", err)
	}
	if _, err := h.Run(bad); err == nil {
		t.Fatal("bad config cached a success")
	}
}

// Overlapping experiments racing on one harness must not duplicate shared
// runs: Figure 5.2's grid is a subset of Figure 5.1's, so running both
// concurrently costs exactly Figure 5.1's 45 simulations.
func TestRunAllOverlapDedup(t *testing.T) {
	opts := parOptions()
	opts.Scale = 0.005
	opts.Transactions = 200
	h := NewHarness(opts)
	tables, err := h.RunAll([]string{"fig5.1", "fig5.2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "fig5.1" || tables[1].ID != "fig5.2" {
		t.Fatalf("tables out of order: %v", []string{tables[0].ID, tables[1].ID})
	}
	if got := h.Executed(); got != 45 {
		t.Fatalf("executed %d runs, want 45 (fig5.2 fully deduped against fig5.1)", got)
	}
	if _, err := h.RunAll([]string{"nope"}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// goldenCase is one figure fixture pinned under testdata/golden/: its id
// renders byte-identically across serial and parallel execution, and the
// render itself is pinned against the committed golden file so
// cross-cutting refactors cannot silently drift the default wiring.
type goldenCase struct {
	id  string
	opt Options
}

func goldenCases(short bool) []goldenCase {
	cases := []goldenCase{
		{"fig5.2", Options{Scale: 0.005, Transactions: 200, Seed: 1, Workers: 1}},
	}
	if !short {
		cases = append(cases,
			goldenCase{"fig6.1", Options{Scale: 0.004, Transactions: 120, Seed: 1, Workers: 1}},
			goldenCase{"tournament", Options{Scale: 0.004, Transactions: 120, Seed: 1, Workers: 1}})
	}
	return cases
}

// plainRenders memoises each golden case's reference render, so the three
// variant tests below compare against one serial run instead of re-running
// it each.
var plainRenders sync.Map // id -> *plainRender

type plainRender struct {
	once sync.Once
	text string
	err  error
}

// renderCase renders c under opt.
func renderCase(c goldenCase, opt Options) (string, error) {
	r, ok := Lookup(c.id)
	if !ok {
		return "", fmt.Errorf("%s not registered", c.id)
	}
	tb, err := r(NewHarness(opt))
	if err != nil {
		return "", err
	}
	return tb.Render(), nil
}

// plainRenderOf returns c's reference render: serial, default (heap)
// calendar.
func plainRenderOf(t *testing.T, c goldenCase) string {
	t.Helper()
	v, _ := plainRenders.LoadOrStore(c.id, &plainRender{})
	p := v.(*plainRender)
	p.once.Do(func() { p.text, p.err = renderCase(c, c.opt) })
	if p.err != nil {
		t.Fatalf("%s serial: %v", c.id, p.err)
	}
	return p.text
}

// assertMatchesPlain renders c under the variant options and requires the
// result to be byte-identical to the reference render and the golden.
func assertMatchesPlain(t *testing.T, c goldenCase, variant string, opt Options) {
	t.Helper()
	want := plainRenderOf(t, c)
	got, err := renderCase(c, opt)
	if err != nil {
		t.Fatalf("%s %s: %v", c.id, variant, err)
	}
	if got != want {
		t.Fatalf("%s: %s render differs from plain:\n--- plain ---\n%s--- %s ---\n%s", c.id, variant, want, variant, got)
	}
	golden.Assert(t, c.id+".txt", got)
}

// Parallel execution must be a pure wall-clock optimization: the rendered
// tables are byte-identical to serial execution and to the committed golden
// fixture. fig5.2 covers the clustering sweep path; fig6.1 covers the 2^8
// factorial batch.
func TestParallelMatchesSerialRender(t *testing.T) {
	for _, c := range goldenCases(testing.Short()) {
		opt := c.opt
		opt.Workers = 4
		assertMatchesPlain(t, c, "parallel", opt)
	}
}

// Replications fan out across goroutines; the averaged result must be
// identical to the serial replication loop.
func TestReplicationFanoutDeterministic(t *testing.T) {
	serial := tinyOptions()
	serial.Replications = 3
	serial.Workers = 1
	parallel := serial
	parallel.Workers = 4
	hs := NewHarness(serial)
	hp := NewHarness(parallel)
	rs, err := hs.Run(hs.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := hp.Run(hp.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, rp) {
		t.Fatalf("parallel replications diverge: serial mean %v parallel mean %v",
			rs.MeanResponse, rp.MeanResponse)
	}
	if hp.Executed() != 3 {
		t.Fatalf("executed %d replications, want 3", hp.Executed())
	}
}

// averageResults must round averaged counts half-up, not truncate.
func TestAverageResultsRoundsHalfUp(t *testing.T) {
	var a, b engine.Results
	a.Completed, b.Completed = 1, 2 // mean 1.5 -> 2
	a.LogIOs, b.LogIOs = 10, 13     // mean 11.5 -> 12
	a.PhysReads, b.PhysReads = 3, 4 // mean 3.5 -> 4
	a.PhysWrites, b.PhysWrites = 2, 3
	out := averageResults([]engine.Results{a, b})
	if out.Completed != 2 {
		t.Fatalf("Completed = %d, want 2 (half-up)", out.Completed)
	}
	if out.LogIOs != 12 {
		t.Fatalf("LogIOs = %d, want 12 (half-up)", out.LogIOs)
	}
	if out.PhysReads != 4 {
		t.Fatalf("PhysReads = %d, want 4 (half-up)", out.PhysReads)
	}
	if out.PhysWrites != 3 {
		t.Fatalf("PhysWrites = %d, want 3 (half-up)", out.PhysWrites)
	}
	for in, want := range map[float64]int{0: 0, 0.4: 0, 0.5: 1, 1.49: 1, 1.5: 2, 2.5: 3} {
		if got := roundCount(in); got != want {
			t.Fatalf("roundCount(%v) = %d, want %d", in, got, want)
		}
	}
}
