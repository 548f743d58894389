package experiment

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

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
	h := NewHarness(figure)
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
	h := NewHarness(figure)
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
	h := NewHarness(figure)
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
	h := NewHarness(figure)
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
	// Out-of-range Hints renders like NoHints, so its Fingerprint is the
	// good config's: it must be refused, not served the memoized result.
	shadow := good
	shadow.Hints = core.HintPolicy(3)
	if _, err := h.Run(shadow); err == nil {
		t.Fatal("out-of-range Hints served the valid config's memoized result")
	}
}

// Overlapping experiments racing on one harness must not duplicate shared
// runs: Figure 5.2's grid is a subset of Figure 5.1's, so running both
// concurrently costs exactly Figure 5.1's 45 simulations.
func TestRunAllOverlapDedup(t *testing.T) {
	h := NewHarness(figure)
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

// Replications fan out across goroutines; the averaged result must be
// identical to the serial replication loop.
func TestReplicationFanoutDeterministic(t *testing.T) {
	serial := figure
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

// A file-backed world lives in its data directory, so file-backed
// configurations that differ only in run fields and directory are separate
// worlds: each runs in its own directory and computes what the memory
// backend computes.
func TestFileBackedBatchRunsEachInItsDirectory(t *testing.T) {
	h := NewHarness(figure)
	var cfgs []engine.Config
	for _, rw := range []float64{5, 50} {
		cfg := h.baseConfig()
		cfg.ReadWriteRatio = rw
		cfg.Backend, cfg.DataDir, cfg.Fsync = "file", t.TempDir(), "never"
		cfgs = append(cfgs, cfg)
	}
	got, err := h.RunConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if fi, err := os.Stat(filepath.Join(cfg.DataDir, storage.WALFileName)); err != nil || fi.Size() == 0 {
			t.Errorf("config %d left no log in its directory: %v", i, err)
		}
		cfg.Backend, cfg.DataDir, cfg.Fsync = "", "", ""
		e, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got[i].LogicalDigest != want.LogicalDigest || got[i].MeanResponse != want.MeanResponse {
			t.Errorf("config %d: file-backed batch run differs from the memory backend's", i)
		}
	}
}
