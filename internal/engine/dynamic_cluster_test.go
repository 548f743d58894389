package engine

import (
	"bytes"
	"reflect"
	"testing"
)

// Determinism gates for the dynamic clustering strategies. DSTC and DRO
// relocate objects mid-run, so every determinism property the static
// strategies enjoy — checkpoint/resume identity, trace record/replay
// identity, serial == concurrent digest equality — must be re-proven with
// reorganization actually firing.

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

// TestDynamicStrategyCheckpointResume: checkpoint at mid-run quiescent
// points, resume from the serialized bytes, and require the continuation
// to be identical to an uninterrupted run. The checkpoint lands between
// reorganization windows, so the restored heat/temperature (dstc) and
// removal/bad-page (dro) state must be carried exactly — a zeroed counter
// would shift every later reorganization.
func TestDynamicStrategyCheckpointResume(t *testing.T) {
	t.Parallel()
	for _, strat := range dynamicStrategies {
		for wl, cfg := range dynamicConfigs(250) {
			t.Run(strat+"/"+wl, func(t *testing.T) {
				cfg.ClusterStrategy = strat
				for _, k := range []int{60, 180} {
					checkResumeIdentity(t, cfg, k)
				}
			})
		}
	}
}

// TestDynamicStrategyTraceIdentity: live == recorded == replayed for each
// dynamic strategy, on the read-only and the write-enabled stream. The
// trace captures the logical operation stream above the clustering seam,
// so recording must not perturb reorganization and replay must reproduce
// every dynamic move.
func TestDynamicStrategyTraceIdentity(t *testing.T) {
	t.Parallel()
	for _, strat := range dynamicStrategies {
		for wl, base := range dynamicConfigs(300) {
			t.Run(strat+"/"+wl, func(t *testing.T) {
				base.ClusterStrategy = strat
				live := run(t, base)

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
	// Each strategy gets the traffic shape that provokes it: dstc's heat
	// windows consolidate under any sustained mix, while dro's sweep needs
	// enough deletions on a small database to drag pages below its load
	// floor (deletions spread too thin across a larger store).
	configs := map[string]Config{}
	{
		cfg := quickOCBConfig(900)
		cfg.OCB.ReadWriteRatio = 1.5
		cfg.Locking = false
		configs["dstc"] = cfg
	}
	{
		cfg := DefaultConfig(0.005)
		cfg.Workload = WorkloadOCB
		cfg.OCB.ReadWriteRatio = 1
		cfg.Locking = false
		cfg.Transactions = 2000
		configs["dro"] = cfg
	}

	for _, strat := range dynamicStrategies {
		t.Run(strat, func(t *testing.T) {
			cfg := configs[strat]
			cfg.ClusterStrategy = strat
			res := runOCB(t, cfg)
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
