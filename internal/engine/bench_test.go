package engine

import (
	"os"
	"testing"
)

// BenchmarkSimThroughput is the serial macro-benchmark: whole
// simulated transactions per wall-clock second, per scale tier. Engine
// construction (type lattice, object base, database construction) is
// untimed; the measured region is the steady-state event loop — calendar
// dispatch, lock traffic, buffer accesses, statistics. ns/op is wall time
// per completed transaction; the events/sec metric is the kernel event rate
// the tentpole tracks; allocs/op is reported without -benchmem.
//
// The large tier (100k users) takes minutes per iteration cycle, so it only
// runs when OODB_BENCH_LARGE is set:
//
//	OODB_BENCH_LARGE=1 go test -run '^$' -bench SimThroughput/large -benchtime 1x -timeout 60m ./internal/engine/
func BenchmarkSimThroughput(b *testing.B) {
	tiers := []string{TierDefault, TierMedium}
	if os.Getenv("OODB_BENCH_LARGE") != "" {
		tiers = append(tiers, TierLarge)
	}
	for _, name := range tiers {
		b.Run(name, func(b *testing.B) {
			cfg, err := TierConfig(name)
			if err != nil {
				b.Fatal(err)
			}
			// Budget exactly the measured transaction count so the
			// generator never drains mid-measurement.
			cfg.Transactions = b.N
			e, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
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
