package engine

import "testing"

// BenchmarkFileBackendThroughput is the real-I/O macro-benchmark: the
// serial simulation with the file backend journaling every placement
// mutation to a write-ahead log, across the three fsync policies. The
// spread between never/interval/always is the price of the durability
// guarantee itself — the WAL append path is identical, only the fsync
// cadence changes.
func BenchmarkFileBackendThroughput(b *testing.B) {
	for _, fsync := range []string{"never", "interval", "always"} {
		b.Run("fsync="+fsync, func(b *testing.B) {
			cfg := DefaultConfig(0.02)
			cfg.Transactions = b.N
			cfg.Backend = "file"
			cfg.DataDir = b.TempDir()
			cfg.Fsync = fsync
			e, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := e.Run()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(res.Completed)/sec, "events/sec")
			}
			d := res.Durability
			if d.WALAppends > 0 && res.Completed > 0 {
				b.ReportMetric(float64(d.WALBytes)/float64(res.Completed), "walB/txn")
			}
		})
	}
}

// BenchmarkWriteMix is the write-pipeline macro-benchmark: a write-enabled OCB mix (one write per two reads across all
// four evolution kinds) over the file backend, per fsync policy. commits/sec
// counts write transactions durably journaled per wall-clock second — the
// write path's real throughput under each durability guarantee. p99w_us is
// the simulated 99th-percentile write response time; it is deterministic, so
// a move between reports means the modeled write path itself changed, not
// the runner.
func BenchmarkWriteMix(b *testing.B) {
	for _, fsync := range []string{"never", "interval", "always"} {
		b.Run("fsync="+fsync, func(b *testing.B) {
			cfg := DefaultConfig(0.02)
			cfg.Workload = WorkloadOCB
			cfg.OCB.ReadWriteRatio = 2
			cfg.Transactions = b.N
			cfg.Backend = "file"
			cfg.DataDir = b.TempDir()
			cfg.Fsync = fsync
			e, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := e.Run()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(res.Completed)/sec, "events/sec")
				b.ReportMetric(float64(res.WriteTxns)/sec, "commits/sec")
			}
			b.ReportMetric(res.P99WriteResponse*1e6, "p99w_us")
		})
	}
}
