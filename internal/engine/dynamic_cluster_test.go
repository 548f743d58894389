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

// TestDynamicStrategyTraceIdentity: live == recorded == replayed for each
// dynamic strategy, on the read-only and the write-enabled stream, and on
// the stream that makes the strategy reorganize. The trace captures the
// logical operation stream above the clustering seam, so recording must
// not perturb reorganization and replay must reproduce every dynamic move.
// It is also the strategies' same-seed gate: the live and recorded runs
// are two runs of one configuration, and the reorganizing stream carries
// the heat-window (dstc) and sweep (dro) state from window to window. On
// that stream the live run must also show the reorganization itself
// (checkReorganized). It is also the cross-engine oracle for the dynamic
// strategies: one concurrent session draws the serial engine's workload
// stream, so a one-user serial run's logical digest — and for the write
// streams, its final-state digest and placement conservation — must match
// the concurrent engine's exactly, even though reorganization runs under
// the sharded pool and the session's view of it. Each case builds its world
// once and runs four clones of it, and the concurrent engine builds its own.
func TestDynamicStrategyTraceIdentity(t *testing.T) {
	t.Parallel()
	for _, strat := range dynamicStrategies {
		cfgs := dynamicStreams(300)
		cfgs["reorg"] = reorgStreams[strat]
		for wl, base := range cfgs {
			t.Run(strat+"/"+wl, func(t *testing.T) {
				base.ClusterStrategy = strat
				w := newFixture(base)
				live := w.run(t, base)
				if wl == "reorg" {
					checkReorganized(t, strat, live)
				}

				var traceBuf bytes.Buffer
				rec := base
				rec.Record = &traceBuf
				recorded := w.run(t, rec)
				if !reflect.DeepEqual(stripped(recorded), stripped(live)) {
					t.Fatalf("recording perturbed the run:\n%v\n%v", recorded, live)
				}

				rep := base
				rep.Replay = bytes.NewReader(traceBuf.Bytes())
				replayed := w.run(t, rep)
				if !reflect.DeepEqual(stripped(replayed), stripped(live)) {
					t.Fatalf("replay diverged from live run:\n%v\n%v", replayed, live)
				}

				one := base
				one.Users, one.Warmup = 1, 0
				serial := w.run(t, one)
				conc := runConcurrent(t, one, ConcurrentOptions{Sessions: 1})
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

// checkReorganized: the gates above are vacuous if reorganization never
// fires, so pin that a strategy's write-heavy stream triggers it — dstc
// consolidates windows and executes heat-driven moves, dro evacuates
// underloaded pages — and that placement stays conserved throughout.
func checkReorganized(t *testing.T, strat string, res Results) {
	t.Helper()
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
}
