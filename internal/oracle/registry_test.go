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
	return run(t, e)
}

func run(t *testing.T, e *engine.Engine) engine.Results {
	t.Helper()
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
				cfg.Replacement = core.Replacement(name)
				runOnce(t, cfg)
			})
		}
	}
}

// TestRegistryClusterStrategiesRunBothWorkloads builds each (workload,
// strategy) world once and runs the three prefetch levels, a run field, on
// it: the first two on clones, the last on the template itself.
func TestRegistryClusterStrategiesRunBothWorkloads(t *testing.T) {
	levels := []core.PrefetchPolicy{core.NoPrefetch, core.PrefetchWithinBuffer, core.PrefetchWithinDB}
	for _, wl := range []string{engine.WorkloadOCT, engine.WorkloadOCB} {
		for _, name := range core.ClusterStrategyNames() {
			wl, name := wl, name
			t.Run(wl+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := registryConfig(wl)
				cfg.ClusterStrategy = name
				tmpl, err := engine.NewTemplate(cfg)
				if err != nil {
					t.Fatalf("building world: %v", err)
				}
				for i, pf := range levels {
					t.Run(pf.String(), func(t *testing.T) {
						cfg.Prefetch = pf
						engineFor := tmpl.Engine
						if i == len(levels)-1 {
							engineFor = tmpl.Take
						}
						e, err := engineFor(cfg)
						if err != nil {
							t.Fatalf("constructing engine: %v", err)
						}
						run(t, e)
					})
				}
			})
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
