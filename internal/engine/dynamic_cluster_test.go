package engine

import (
	"bytes"
	"reflect"
	"testing"
)

// Determinism gates for the dynamic clustering strategies. DSTC and DRO
// relocate objects mid-run, so every determinism property the static
// strategies enjoy — same-seed and trace record/replay identity, serial ==
// concurrent digest equality — must be re-proven with reorganization
// actually firing.

// dynamicStrategies are the PR 10 contenders with mid-run reorganization.
var dynamicStrategies = []string{"dstc", "dro"}

// dynamicConfigs returns the three workload shapes the gates run under:
// OCT, read-only OCB, and a write-enabled OCB mix (locking off so the
// stream executes synchronously and digests are strategy-comparable).
func dynamicConfigs(txns int) map[string]Config {
	writes := quickOCBConfig(txns)
	writes.OCB.ReadWriteRatio = 2
	writes.Locking = false
	return map[string]Config{
		"oct":       quickConfig(txns),
		"ocb":       quickOCBConfig(txns),
		"ocb-write": writes,
	}
}

// reorgConfig is the write-heavy stream that provokes strat's
// reorganization. Each strategy gets its own shape: dstc's heat windows
// consolidate under any sustained mix, while dro's sweep needs enough
// deletions on a small database to drag pages below its load floor
// (deletions spread too thin across a larger store).
func reorgConfig(strat string) Config {
	if strat == "dro" {
		cfg := DefaultConfig(0.005)
		cfg.Workload = WorkloadOCB
		cfg.OCB.ReadWriteRatio = 1
		cfg.Locking = false
		cfg.Transactions = 2000
		return cfg
	}
	cfg := quickOCBConfig(900)
	cfg.OCB.ReadWriteRatio = 1.5
	cfg.Locking = false
	return cfg
}

// TestDynamicStrategyTraceIdentity: live == recorded == replayed for each
// dynamic strategy, on the read-only and the write-enabled stream, and on
// the stream that makes the strategy reorganize. The trace captures the
// logical operation stream above the clustering seam, so recording must
// not perturb reorganization and replay must reproduce every dynamic move.
// It is also the strategies' same-seed gate: the live and recorded runs
// are two runs of one configuration, and the reorganizing stream carries
// the heat-window (dstc) and sweep (dro) state from window to window.
func TestDynamicStrategyTraceIdentity(t *testing.T) {
	t.Parallel()
	for _, strat := range dynamicStrategies {
		cfgs := dynamicConfigs(300)
		cfgs["reorg"] = reorgConfig(strat)
		for wl, base := range cfgs {
			t.Run(strat+"/"+wl, func(t *testing.T) {
				base.ClusterStrategy = strat
				live := run(t, base)
				if wl == "reorg" && live.Cluster.DynMoves == 0 {
					t.Fatalf("%s made no dynamic moves on its reorganizing stream", strat)
				}

				var traceBuf bytes.Buffer
				rec := base
				rec.Record = &traceBuf
				recorded := run(t, rec)
				if !reflect.DeepEqual(stripped(recorded), stripped(live)) {
					t.Fatalf("recording perturbed the run:\n%v\n%v", recorded, live)
				}

				rep := base
				rep.Replay = bytes.NewReader(traceBuf.Bytes())
				replayed := run(t, rep)
				if !reflect.DeepEqual(stripped(replayed), stripped(live)) {
					t.Fatalf("replay diverged from live run:\n%v\n%v", replayed, live)
				}
			})
		}
	}
}

// TestDynamicStrategyConcurrentSerialDigest: the cross-engine oracle for
// the dynamic strategies. One concurrent session draws the serial engine's
// workload stream, so the logical digest — and for the write mix, the
// final-state digest and placement conservation — must match the serial
// simulator exactly even though reorganization runs under the sharded
// concurrent pool.
func TestDynamicStrategyConcurrentSerialDigest(t *testing.T) {
	for _, strat := range dynamicStrategies {
		for wl, cfg := range dynamicConfigs(400) {
			t.Run(strat+"/"+wl, func(t *testing.T) {
				cfg.ClusterStrategy = strat
				cfg.Users = 1
				cfg.Warmup = 0

				serial := run(t, cfg)
				conc := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 1})

				if serial.LogicalDigest != conc.LogicalDigest {
					t.Fatalf("digest diverged: serial %016x, concurrent %016x",
						serial.LogicalDigest, conc.LogicalDigest)
				}
				if serial.FinalStateDigest != conc.FinalStateDigest {
					t.Fatalf("final-state digest diverged: serial %016x, concurrent %016x",
						serial.FinalStateDigest, conc.FinalStateDigest)
				}
				if serial.Completed != conc.Completed || serial.LogicalOps != conc.LogicalOps {
					t.Fatalf("counts diverged: serial %d/%d, concurrent %d/%d",
						serial.Completed, serial.LogicalOps, conc.Completed, conc.LogicalOps)
				}
				if serial.ConservationViolations != 0 || conc.ConservationViolations != 0 {
					t.Fatalf("conservation violations: serial %d, concurrent %d",
						serial.ConservationViolations, conc.ConservationViolations)
				}
			})
		}
	}
}

// TestDynamicStrategiesActuallyReorganize: the gates above are vacuous if
// reorganization never fires, so pin that a write-heavy run triggers it —
// dstc consolidates windows and executes heat-driven moves, dro evacuates
// underloaded pages — and that placement stays conserved throughout.
func TestDynamicStrategiesActuallyReorganize(t *testing.T) {
	for _, strat := range dynamicStrategies {
		t.Run(strat, func(t *testing.T) {
			cfg := reorgConfig(strat)
			cfg.ClusterStrategy = strat
			res := run(t, cfg)
			if res.WriteTxns == 0 {
				t.Fatal("write-heavy run completed no writes")
			}
			if res.Cluster.DynMoves == 0 {
				t.Fatalf("%s executed zero dynamic moves: %+v", strat, res.Cluster)
			}
			switch strat {
			case "dstc":
				if res.Cluster.Consolidations == 0 {
					t.Fatal("dstc never consolidated an observation window")
				}
			case "dro":
				if res.Cluster.Evacuations == 0 {
					t.Fatal("dro never evacuated a bad page")
				}
			}
			if res.ConservationViolations != 0 {
				t.Fatalf("%d conservation violations under %s", res.ConservationViolations, strat)
			}
			if res.LiveObjects != res.PlacedObjects {
				t.Fatalf("run ended with %d live but %d placed objects",
					res.LiveObjects, res.PlacedObjects)
			}
		})
	}
}
