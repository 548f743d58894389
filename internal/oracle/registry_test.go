package oracle

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/engine"
)

// Table-driven registry coverage: every registered replacement policy and
// clustering strategy must construct and run a small instance of both
// workloads without error, and — under the read-only OCB workload — agree
// with the default wiring through the differential oracle.

func registryConfig(wl string) engine.Config {
	cfg := engine.DefaultConfig(0.004)
	cfg.Workload = wl
	cfg.Transactions = 120
	cfg.Seed = 11
	return cfg
}

func runOnce(t *testing.T, cfg engine.Config) engine.Results {
	t.Helper()
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("constructing engine: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("running engine: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("run completed zero transactions")
	}
	return res
}

func TestRegistryPoliciesRunBothWorkloads(t *testing.T) {
	for _, wl := range []string{engine.WorkloadOCT, engine.WorkloadOCB} {
		for _, name := range buffer.PolicyNames() {
			if isTestPolicy(name) {
				continue
			}
			wl, name := wl, name
			t.Run(wl+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := registryConfig(wl)
				cfg.ReplacementName = name
				runOnce(t, cfg)
			})
		}
	}
}

func TestRegistryClusterStrategiesRunBothWorkloads(t *testing.T) {
	for _, wl := range []string{engine.WorkloadOCT, engine.WorkloadOCB} {
		for _, name := range core.ClusterStrategyNames() {
			for _, pf := range []core.PrefetchPolicy{core.NoPrefetch, core.PrefetchWithinBuffer, core.PrefetchWithinDB} {
				wl, name, pf := wl, name, pf
				t.Run(wl+"/"+name+"/"+pf.String(), func(t *testing.T) {
					t.Parallel()
					cfg := registryConfig(wl)
					cfg.ClusterStrategy = name
					cfg.Prefetch = pf
					runOnce(t, cfg)
				})
			}
		}
	}
}

// TestRegistryPoliciesAgreeWithDefaultWiring records one OCB stream of its
// own and replays it once under every registered replacement policy,
// checking each against the recorded default wiring.
func TestRegistryPoliciesAgreeWithDefaultWiring(t *testing.T) {
	base := registryConfig(engine.WorkloadOCB)
	s, err := Record(base)
	if err != nil {
		t.Fatalf("recording: %v", err)
	}
	sweep(t, s, base, "replacement=")
}
