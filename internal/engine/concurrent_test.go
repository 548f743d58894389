package engine

import (
	"runtime"
	"testing"
	"time"
)

// runConcurrent is run for the wall-clock engine: build, run, check the
// invariants, close.
func runConcurrent(t *testing.T, cfg Config, opt ConcurrentOptions) ConcurrentResults {
	t.Helper()
	c, err := NewConcurrent(cfg, opt)
	if err != nil {
		t.Fatalf("NewConcurrent: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("Concurrent.Run: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return res
}

// TestConcurrentSerialDigestOCT: the cross-engine oracle. One concurrent
// session draws the serial engine's own workload stream with the serial
// engine's session-length bookkeeping, so the logical result of the run —
// the digest folding every read (id, found) in execution order, the
// operation counts, the not-found count — must match the serial simulator's
// exactly, even though the two engines share nothing below the workload
// seam (event calendar vs goroutines, deterministic pool vs sharded pool).
func TestConcurrentSerialDigestOCT(t *testing.T) {
	cfg := quickConfig(400)
	cfg.Users = 1
	cfg.Warmup = 0

	serial := run(t, cfg)
	conc := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 1})

	if serial.LogicalDigest != conc.LogicalDigest {
		t.Fatalf("digest diverged: serial %016x, concurrent %016x",
			serial.LogicalDigest, conc.LogicalDigest)
	}
	if serial.Completed != conc.Completed {
		t.Fatalf("completed diverged: serial %d, concurrent %d", serial.Completed, conc.Completed)
	}
	if serial.LogicalOps != conc.LogicalOps {
		t.Fatalf("logical ops diverged: serial %d, concurrent %d", serial.LogicalOps, conc.LogicalOps)
	}
	if serial.NotFoundReads != conc.NotFoundReads {
		t.Fatalf("not-found diverged: serial %d, concurrent %d", serial.NotFoundReads, conc.NotFoundReads)
	}
}

// TestConcurrentSerialDigestOCB: the same oracle over the OCB workload
// family (read-only mix, traversal-heavy operations).
func TestConcurrentSerialDigestOCB(t *testing.T) {
	cfg := quickOCBConfig(400)
	cfg.Users = 1
	cfg.Warmup = 0

	serial := run(t, cfg)
	conc := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 1})

	if serial.LogicalDigest != conc.LogicalDigest {
		t.Fatalf("digest diverged: serial %016x, concurrent %016x",
			serial.LogicalDigest, conc.LogicalDigest)
	}
	if serial.Completed != conc.Completed || serial.LogicalOps != conc.LogicalOps {
		t.Fatalf("counts diverged: serial %d/%d, concurrent %d/%d",
			serial.Completed, serial.LogicalOps, conc.Completed, conc.LogicalOps)
	}
}

// TestConcurrentSerialDigestOCBWrites: the cross-engine oracle over a
// write-enabled OCB stream. With one session and locking disabled, the
// concurrent engine executes the serial engine's exact transaction stream
// synchronously, so both the logical-read digest and the final logical
// database must match — and both engines must conserve placement
// (every live object on exactly one page) after every write.
func TestConcurrentSerialDigestOCBWrites(t *testing.T) {
	cfg := quickOCBConfig(400)
	cfg.OCB.ReadWriteRatio = 2
	cfg.Locking = false
	cfg.Users = 1
	cfg.Warmup = 0

	serial := run(t, cfg)
	conc := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 1})

	if serial.WriteTxns == 0 {
		t.Fatal("write-enabled OCB run completed no writes")
	}
	if serial.LogicalDigest != conc.LogicalDigest {
		t.Fatalf("logical digest diverged: serial %016x, concurrent %016x",
			serial.LogicalDigest, conc.LogicalDigest)
	}
	if serial.FinalStateDigest != conc.FinalStateDigest {
		t.Fatalf("final-state digest diverged: serial %016x, concurrent %016x",
			serial.FinalStateDigest, conc.FinalStateDigest)
	}
	if serial.ConservationViolations != 0 || conc.ConservationViolations != 0 {
		t.Fatalf("conservation violations: serial %d, concurrent %d",
			serial.ConservationViolations, conc.ConservationViolations)
	}
	if serial.LiveObjects != serial.PlacedObjects {
		t.Fatalf("serial run ended with %d live but %d placed objects",
			serial.LiveObjects, serial.PlacedObjects)
	}
	if conc.LiveObjects != conc.PlacedObjects {
		t.Fatalf("concurrent run ended with %d live but %d placed objects",
			conc.LiveObjects, conc.PlacedObjects)
	}
	if serial.Completed != conc.Completed || serial.LogicalOps != conc.LogicalOps {
		t.Fatalf("counts diverged: serial %d/%d, concurrent %d/%d",
			serial.Completed, serial.LogicalOps, conc.Completed, conc.LogicalOps)
	}
}

// TestConcurrentManyWriteSessions: a real multi-session write-enabled run.
// Interleaving is nondeterministic, so only the invariants are asserted:
// every transaction completes, placement is conserved at end of run, and
// the shared structures pass their invariants.
func TestConcurrentManyWriteSessions(t *testing.T) {
	cfg := quickOCBConfig(600)
	cfg.OCB.ReadWriteRatio = 2
	res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 8})
	if res.Completed != cfg.Transactions {
		t.Fatalf("completed %d transactions, want %d", res.Completed, cfg.Transactions)
	}
	if res.ConservationViolations != 0 {
		t.Fatalf("%d conservation violations under concurrent writes", res.ConservationViolations)
	}
	if res.LiveObjects != res.PlacedObjects {
		t.Fatalf("run ended with %d live but %d placed objects", res.LiveObjects, res.PlacedObjects)
	}
	if res.FinalStateDigest == 0 {
		t.Fatal("zero final-state digest")
	}
}

// TestConcurrentManySessions drives a real multi-session run end to end on
// both workload families and checks the global accounting: every issued
// transaction completes exactly once, the latency distribution covers every
// measured transaction, and the shared structures pass their invariants
// (which runConcurrent asserts).
func TestConcurrentManySessions(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"oct", quickConfig(600)},
		{"ocb", quickOCBConfig(600)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Warmup = 50
			res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 8})
			want := cfg.Transactions + cfg.Warmup
			if res.Completed != want {
				t.Fatalf("completed %d transactions, want %d", res.Completed, want)
			}
			if got := int(res.Latency.N()); got != cfg.Transactions {
				t.Fatalf("latency histogram holds %d samples, want %d (warmup excluded)",
					got, cfg.Transactions)
			}
			if res.LogicalDigest == 0 {
				t.Fatal("zero logical digest")
			}
			if res.Throughput <= 0 {
				t.Fatalf("throughput %v", res.Throughput)
			}
			if res.Latency.Quantile(0.50) > res.Latency.Quantile(0.99) {
				t.Fatalf("p50 %d > p99 %d", res.Latency.Quantile(0.50), res.Latency.Quantile(0.99))
			}
		})
	}
}

// TestConcurrentSameSeedLogicalInvariants: wall-clock interleaving is not
// reproducible, but the per-session transaction streams are seed-derived,
// so repeat runs of a read-only (OCB) configuration must agree on the
// order-independent logical observables.
func TestConcurrentSameSeedLogicalInvariants(t *testing.T) {
	cfg := quickOCBConfig(400)
	a := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 4})
	b := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 4})
	if a.LogicalDigest != b.LogicalDigest {
		t.Fatalf("read-only digests diverged across runs: %016x vs %016x",
			a.LogicalDigest, b.LogicalDigest)
	}
	if a.Completed != b.Completed || a.LogicalOps != b.LogicalOps {
		t.Fatalf("counts diverged: %d/%d vs %d/%d",
			a.Completed, a.LogicalOps, b.Completed, b.LogicalOps)
	}
}

// TestConcurrentAutoSharding: the pool and lock table size themselves to
// the machine, a tiny pool clamps its shard count down to keep a frame per
// shard, and the run reports what it chose.
func TestConcurrentAutoSharding(t *testing.T) {
	want := 1 // the next power of two >= GOMAXPROCS
	for want < runtime.GOMAXPROCS(0) {
		want *= 2
	}

	cfg := quickConfig(50)
	res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 2})
	if res.LockShards != want {
		t.Fatalf("lock shards = %d, want %d", res.LockShards, want)
	}
	if wantBuf := min(want, cfg.Buffers); res.PoolShards != wantBuf {
		t.Fatalf("pool shards = %d, want %d", res.PoolShards, wantBuf)
	}

	cfg.Locking = false
	if res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 2}); res.LockShards != 0 {
		t.Fatalf("lock shards = %d with locking off, want 0", res.LockShards)
	}

	tiny := quickConfig(50)
	tiny.Buffers = 3
	res = runConcurrent(t, tiny, ConcurrentOptions{Sessions: 1})
	if wantBuf := min(want, 2); res.PoolShards != wantBuf {
		t.Fatalf("clamped pool shards = %d, want %d", res.PoolShards, wantBuf)
	}
}

// TestConcurrentOpenLoop exercises the open-loop arrival controller: at a
// rate the system easily sustains, the run's wall time is governed by the
// arrival schedule and every transaction still completes.
func TestConcurrentOpenLoop(t *testing.T) {
	cfg := quickConfig(60)
	res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 4, ArrivalRate: 2000})
	if res.Completed != cfg.Transactions {
		t.Fatalf("completed %d, want %d", res.Completed, cfg.Transactions)
	}
	// 60 arrivals at 2000/s intend ~30ms of schedule; allow generous slack.
	if res.Elapsed > 10*time.Second {
		t.Fatalf("open-loop run took %v", res.Elapsed)
	}
}

// TestConcurrentRejectsSerialOnlyAttachments: trace sinks and record/replay
// depend on a deterministic schedule and must be refused.
func TestConcurrentRejectsSerialOnlyAttachments(t *testing.T) {
	cfg := quickConfig(50)
	cfg.Record = &discard{}
	if _, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 1}); err == nil {
		t.Fatal("NewConcurrent accepted a trace recorder")
	}
	cfg = quickConfig(50)
	if _, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 0}); err == nil {
		t.Fatal("NewConcurrent accepted zero sessions")
	}
}

type discard struct{}

func (*discard) Write(p []byte) (int, error) { return len(p), nil }
