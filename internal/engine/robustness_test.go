package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oodb/internal/core"
	"oodb/internal/workload"
)

// TestRandomConfigurations is a robustness sweep: arbitrary combinations of
// every control parameter must run to completion with storage and lock
// invariants intact. This is the fuzz net under the whole stack.
func TestRandomConfigurations(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(0.004 + rng.Float64()*0.01)
		cfg.Seed = seed
		cfg.Transactions = 150 + rng.Intn(150)
		cfg.Density = workload.Densities[rng.Intn(3)]
		cfg.ReadWriteRatio = []float64{0.5, 2, 5, 10, 100}[rng.Intn(5)]
		cfg.Cluster = []core.ClusterPolicy{
			core.PolicyNoCluster, core.PolicyWithinBuffer,
			core.PolicyIOLimit2, core.PolicyIOLimit10, core.PolicyNoLimit,
		}[rng.Intn(5)]
		cfg.Split = core.SplitPolicy(rng.Intn(3))
		cfg.Hints = core.HintPolicy(rng.Intn(2))
		cfg.Replacement = []core.Replacement{core.ReplLRU, core.ReplContext, core.ReplRandom}[rng.Intn(3)]
		cfg.Prefetch = core.PrefetchPolicy(rng.Intn(3))
		cfg.Locking = rng.Intn(2) == 0
		cfg.Warmup = rng.Intn(50)
		if rng.Intn(3) == 0 {
			cfg.PhasedRW = []float64{100, 2}
			cfg.AdaptiveClustering = rng.Intn(2) == 0
		}
		if rng.Intn(4) == 0 {
			cfg.NoSiblingCandidates = true
		}

		e, err := New(cfg)
		if err != nil {
			t.Logf("seed %d: New: %v", seed, err)
			return false
		}
		res, err := e.Run()
		if err != nil {
			t.Logf("seed %d: Run: %v", seed, err)
			return false
		}
		if res.Completed < cfg.Transactions {
			t.Logf("seed %d: completed %d of %d", seed, res.Completed, cfg.Transactions)
			return false
		}
		if err := e.store.CheckInvariants(); err != nil {
			t.Logf("seed %d: storage: %v", seed, err)
			return false
		}
		if e.locks != nil {
			if err := e.locks.CheckInvariants(); err != nil {
				t.Logf("seed %d: locks: %v", seed, err)
				return false
			}
			if e.locks.Locked() != 0 {
				t.Logf("seed %d: %d objects still locked", seed, e.locks.Locked())
				return false
			}
		}
		return true
	}
	n := 25
	if testing.Short() {
		n = 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: n}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferingOrderingAtScale asserts Figure 5.11's headline ordering at a
// larger scale: context-sensitive + prefetch-within-DB beats LRU without
// prefetching. Skipped in -short.
func TestBufferingOrderingAtScale(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("slow: two scale-0.1 runs")
	}
	base := DefaultConfig(0.1)
	base.Transactions = 1500
	base.Density = workload.HighDensity
	base.ReadWriteRatio = 100
	base.Cluster = core.PolicyNoLimit
	base.Split = core.LinearSplit

	best := base
	best.Replacement = core.ReplContext
	best.Prefetch = core.PrefetchWithinDB
	rBest := run(t, best)

	worst := base
	worst.Replacement = core.ReplLRU
	worst.Prefetch = core.NoPrefetch
	rWorst := run(t, worst)

	if rBest.MeanResponse >= rWorst.MeanResponse {
		t.Fatalf("C_p_DB (%v) should beat LRU_no_p (%v)",
			rBest.MeanResponse, rWorst.MeanResponse)
	}
}
