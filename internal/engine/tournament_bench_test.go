package engine

import "testing"

// BenchmarkClusterTournament is the clustering-strategy macro-benchmark:
// whole write-enabled OCB transactions per wall-clock second, one sub-bench
// per registered tournament contender. It measures what each clustering
// strategy costs on the engine's hot path — the dynamic strategies pay for
// their statistics feed (dstc) and sweep bookkeeping (dro) inline, so a
// regression in either shows up here before it shows up in a figure run.
func BenchmarkClusterTournament(b *testing.B) {
	for _, strat := range []string{"affinity", "dstc", "dro", "noop"} {
		b.Run(strat, func(b *testing.B) {
			cfg := DefaultConfig(0.02)
			cfg.Workload = WorkloadOCB
			cfg.OCB.ReadWriteRatio = 3
			cfg.ClusterStrategy = strat
			// Budget exactly the measured transaction count so the
			// generator never drains mid-measurement.
			cfg.Transactions = b.N
			e, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			done, err := e.RunN(b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if done != b.N {
				b.Fatalf("completed %d of %d transactions", done, b.N)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(e.EventsExecuted())/sec, "events/sec")
			}
		})
	}
}
