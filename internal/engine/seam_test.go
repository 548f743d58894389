package engine

import (
	"reflect"
	"testing"

	"oodb/internal/core"
	"oodb/internal/obs"
)

// seamConfig is a tiny but complete run for exercising the layer seams.
func seamConfig() Config {
	cfg := DefaultConfig(0.01)
	cfg.Transactions = 150
	return cfg
}

// TestRegistrySelectedStack drives a full simulation through the same path
// the CLI flags use: replacement policy and clustering strategy chosen by
// registry name instead of by enum.
func TestRegistrySelectedStack(t *testing.T) {
	cfg := seamConfig()
	cfg.ReplacementName = "clock"
	cfg.ClusterStrategy = "noop"
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.tuner != nil {
		// noop is the affinity clusterer pinned to No_Cluster; the adaptive
		// extension must not be able to switch it into clustering.
		t.Fatal("noop strategy must not expose a policy tuner")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < cfg.Transactions {
		t.Fatalf("completed %d of %d transactions", res.Completed, cfg.Transactions)
	}
	if res.Cluster.Moves != 0 || res.Cluster.Splits != 0 {
		t.Fatalf("noop strategy moved/split: %+v", res.Cluster)
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNoopIsAffinityNoCluster: "noop" is the paper's No_Cluster policy, so a
// run under it equals a run of the affinity clusterer pinned to
// PolicyNoCluster in every result but the configuration — on OCT and on a
// write-enabled OCB stream, with locking on. noop keeps the default
// candidate-pool policy in its Config: the strategy must ignore it.
func TestNoopIsAffinityNoCluster(t *testing.T) {
	t.Parallel()
	writes := quickOCBConfig(300)
	writes.OCB.ReadWriteRatio = 2
	for name, base := range map[string]Config{"oct": quickConfig(300), "ocb-write": writes} {
		t.Run(name, func(t *testing.T) {
			base.Locking = true
			noop := base
			noop.ClusterStrategy = "noop"
			affinity := base
			affinity.ClusterStrategy = "affinity"
			affinity.Cluster = core.PolicyNoCluster
			a, b := run(t, noop), run(t, affinity)
			if name == "ocb-write" && a.WriteTxns == 0 {
				t.Fatal("write-enabled stream completed no writes")
			}
			if !reflect.DeepEqual(stripped(a), stripped(b)) {
				t.Fatalf("noop diverged from affinity/No_Cluster:\n%v\n%v", a, b)
			}
		})
	}
}

// TestRegistryRejectsUnknownNames covers the Validate path the CLIs rely on.
func TestRegistryRejectsUnknownNames(t *testing.T) {
	cfg := seamConfig()
	cfg.ReplacementName = "no-such-policy"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown replacement name accepted")
	}
	cfg = seamConfig()
	cfg.ClusterStrategy = "no-such-strategy"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown cluster strategy accepted")
	}
}

// TestRecorderObservesAllLayers runs an instrumented simulation and checks
// that each layer reported events into the shared recorder.
func TestRecorderObservesAllLayers(t *testing.T) {
	cfg := seamConfig()
	cfg.Replacement = core.ReplContext // so boosts fire too
	rec := &obs.Counters{}
	cfg.Recorder = rec
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// One event per layer proves the recorder is plumbed end to end;
	// construction alone already exercises storage and clustering.
	for _, ev := range []obs.Event{
		obs.EngineTxn, obs.PoolMiss, obs.PoolBoost,
		obs.ClusterPlacement, obs.StoreAllocPage,
		obs.LogBeforeImage, obs.LockGrant,
	} {
		if rec.CountOf(ev) == 0 {
			t.Errorf("no %v events recorded", ev)
		}
	}
	if rec.CountOf(obs.EngineTxn) != int64(cfg.Transactions) {
		t.Errorf("EngineTxn = %d, want %d", rec.CountOf(obs.EngineTxn), cfg.Transactions)
	}
	if rec.Render() == "" {
		t.Error("Render returned nothing for a populated recorder")
	}
}

// TestUninstrumentedRunMatchesInstrumented verifies the recorder seam is
// purely observational: the same seed with and without a recorder produces
// identical simulation results.
func TestUninstrumentedRunMatchesInstrumented(t *testing.T) {
	run := func(rec obs.Recorder) Results {
		cfg := seamConfig()
		cfg.Recorder = rec
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(&obs.Counters{})
	if plain.String() != observed.String() {
		t.Fatalf("recorder perturbed the run:\nplain:    %s\nobserved: %s",
			plain.String(), observed.String())
	}
}
