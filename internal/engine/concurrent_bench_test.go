package engine

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkConcurrentSessions is the concurrent macro-benchmark: N client goroutines in a closed loop with a short think
// time, sharing one buffer pool, lock table, and storage backend. The
// events/sec metric is completed transactions per wall-clock second; the
// p50/p99/p999 metrics are per-transaction latency percentiles in
// microseconds from the mergeable HDR histogram.
//
// The think time is the load-scaling lever: one client submitting
// back-to-back would saturate a single-CPU runner and make the 8-client run
// no faster, while with a think time each client spends most of its loop
// sleeping and added clients overlap their waits — the closed-loop
// interactive model whose throughput grows with the client count until the
// shared structures push back.
func BenchmarkConcurrentSessions(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			cfg := DefaultConfig(0.02)
			cfg.Transactions = b.N
			opt := ConcurrentOptions{
				Sessions:  clients,
				ThinkTime: 2 * time.Millisecond,
			}
			c, err := NewConcurrent(cfg, opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := c.Run()
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if res.Completed != b.N {
				b.Fatalf("completed %d of %d transactions", res.Completed, b.N)
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(res.Completed)/sec, "events/sec")
			}
			if res.Latency.N() > 0 {
				b.ReportMetric(float64(res.Latency.Quantile(0.50)), "p50_us")
				b.ReportMetric(float64(res.Latency.Quantile(0.99)), "p99_us")
				b.ReportMetric(float64(res.Latency.Quantile(0.999)), "p999_us")
			}
		})
	}
}
