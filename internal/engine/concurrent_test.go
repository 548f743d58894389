package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oodb/internal/core"
	"oodb/internal/workload"
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
	cfg := octSmall.config(400)
	cfg.Users = 1
	cfg.Warmup = 0

	serial := octSmall.run(t, cfg)
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
	cfg := ocbSmall.config(400)
	cfg.Users = 1
	cfg.Warmup = 0

	serial := ocbSmall.run(t, cfg)
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
	cfg := noLocking(ocbWrites.cfg, 400)
	cfg.Users = 1
	cfg.Warmup = 0

	serial := ocbWrites.run(t, cfg)
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
	cfg := ocbWrites.config(600)
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
		{"oct", octSmall.config(600)},
		{"ocb", ocbSmall.config(600)},
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

// TestConcurrentTakesNoLocks pins that object locks are the serial driver's
// model: the concurrent driver makes no lock request at all, on read-only
// streams and on a write mix, and reports the configuration it ran, locking
// off. The serial driver locks the same read-only streams, whose waits are
// part of the paper's simulated response time.
func TestConcurrentTakesNoLocks(t *testing.T) {
	readOnlyOCT := octSmall.config(400)
	readOnlyOCT.ReadWriteRatio = math.Inf(1)
	for _, tc := range []struct {
		name string
		f    *fixture
		cfg  Config
	}{
		{"oct", octSmall, readOnlyOCT},
		{"ocb", ocbSmall, ocbSmall.config(400)},
		{"oct-writes", octSmall, octSmall.config(400)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conc := runConcurrent(t, tc.cfg, ConcurrentOptions{Sessions: 2})
			if conc.LogicalOps == 0 {
				t.Fatal("run read nothing")
			}
			if got := conc.Locks.Requests; got != 0 || conc.Config.Locking {
				t.Errorf("concurrent run made %d lock requests, reports locking=%v; want 0 and off",
					got, conc.Config.Locking)
			}
			writes := 0
			for k := workload.QueryKind(0); k < workload.NumQueryKinds; k++ {
				if k.IsWrite() {
					writes += conc.KindCount[k.String()]
				}
			}
			if wantWrites := tc.name == "oct-writes"; (writes > 0) != wantWrites {
				t.Fatalf("%d writes committed, want writes %v", writes, wantWrites)
			}
			if tc.name == "oct-writes" {
				return
			}
			if serial := tc.f.run(t, tc.cfg); serial.Locks.Requests == 0 || serial.WriteTxns != 0 {
				t.Errorf("serial run of the same stream: %d lock requests, %d writes; want its reads locked and no write",
					serial.Locks.Requests, serial.WriteTxns)
			}
		})
	}
}

// TestConcurrentPoolSessionHitsConserved: each session's buffer.View
// defers its hits, so a touch left pending when a session stops would be
// lost from the pool's statistics. On a read-only OCB run without
// prefetch, every found logical read is one pool hit or one miss, and the
// pool's hits are the ones the sessions counted — at any session count.
// With several sessions, the last one raises the fail-stop flag early, so
// every session stops on the flag instead of its quota.
func TestConcurrentPoolSessionHitsConserved(t *testing.T) {
	for _, sessions := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			cfg := ocbSmall.config(600)
			c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: sessions})
			if err != nil {
				t.Fatal(err)
			}
			failStop := sessions > 1
			if failStop {
				cs := c.sessions[sessions-1]
				cs.stack.gen = &failAfter{Source: cs.stack.gen, n: 20, failed: &c.failed}
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if stopped := res.Completed < cfg.Transactions+cfg.Warmup; stopped != failStop {
				t.Fatalf("completed %d of %d transactions, fail-stop %v",
					res.Completed, cfg.Transactions+cfg.Warmup, failStop)
			}
			hits := 0
			for _, h := range res.KindHits {
				hits += h
			}
			if res.Pool.Hits != hits {
				t.Fatalf("pool counted %d hits, sessions %d", res.Pool.Hits, hits)
			}
			if found := res.LogicalOps - res.NotFoundReads; res.Pool.Hits+res.Pool.Misses != found {
				t.Fatalf("%d hits + %d misses for %d found logical reads",
					res.Pool.Hits, res.Pool.Misses, found)
			}
		})
	}
}

// TestConcurrentViewMatchesEagerPool: with one session, every shard's
// policy sees through the session's view exactly the notifications the
// pool's own methods would give it, so a run whose stack calls the pool
// directly reports the same result in every layer — victims decide the
// physical I/O counts, and under writes the clusterer's candidate pages.
// Both streams write, driving the view's eager mode beside the
// clusterer's own pool calls; the context-sensitive policy adds locked
// boosts between deferred hits.
func TestConcurrentViewMatchesEagerPool(t *testing.T) {
	for name, cfg := range map[string]Config{
		"ocb-write":   noLocking(ocbWrites.cfg, 400),
		"oct-context": withContext(octSmall.config(400)),
	} {
		t.Run(name, func(t *testing.T) {
			run := func(eager bool) ResultCore {
				c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 1})
				if err != nil {
					t.Fatal(err)
				}
				if eager {
					st := c.sessions[0].stack
					st.pool, st.pf.Pool = c.pool, c.pool
				}
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				res.Throughput = 0 // wall clock
				return res.ResultCore
			}
			view, eager := run(false), run(true)
			if view.Pool.Hits == 0 || view.Pool.Evictions == 0 {
				t.Fatalf("run never hit or never evicted: %+v", view.Pool)
			}
			if !reflect.DeepEqual(view, eager) {
				t.Fatalf("view run diverged from the eager pool:\n%+v\n%+v", view, eager)
			}
		})
	}
}

// withContext returns cfg under the context-sensitive replacement policy,
// whose per-read boosts are locked view calls between deferred hits.
func withContext(cfg Config) Config {
	cfg.Replacement = core.ReplContext
	return cfg
}

// failAfter is a session's operation source that raises the fail-stop
// flag on its nth draw, as a session whose transaction failed does.
type failAfter struct {
	workload.Source
	n      int
	failed *atomic.Bool
}

func (f *failAfter) Next() workload.Op {
	if f.n--; f.n == 0 {
		f.failed.Store(true)
	}
	return f.Source.Next()
}

// TestConcurrentSameSeedLogicalInvariants: wall-clock interleaving is not
// reproducible, but the per-session transaction streams are seed-derived,
// so repeat runs of a read-only (OCB) configuration must agree on the
// order-independent logical observables.
func TestConcurrentSameSeedLogicalInvariants(t *testing.T) {
	cfg := ocbSmall.config(400)
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

// TestConcurrentAutoSharding: the pool sizes itself to the machine, a tiny
// pool clamps its shard count down to keep a frame per shard, and the run
// reports what it chose.
func TestConcurrentAutoSharding(t *testing.T) {
	want := 1 // the next power of two >= GOMAXPROCS
	for want < runtime.GOMAXPROCS(0) {
		want *= 2
	}

	cfg := octSmall.config(50)
	res := runConcurrent(t, cfg, ConcurrentOptions{Sessions: 2})
	if wantBuf := min(want, cfg.Buffers); res.PoolShards != wantBuf {
		t.Fatalf("pool shards = %d, want %d", res.PoolShards, wantBuf)
	}

	tiny := octSmall.config(50)
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
	cfg := octSmall.config(60)
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
	cfg := octSmall.config(50)
	cfg.Record = &discard{}
	if _, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 1}); err == nil {
		t.Fatal("NewConcurrent accepted a trace recorder")
	}
	cfg = octSmall.config(50)
	if _, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 0}); err == nil {
		t.Fatal("NewConcurrent accepted zero sessions")
	}
	// A NaN rate would run closed-loop and +Inf with no gap at all.
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := ConcurrentOptions{Sessions: 1, ArrivalRate: rate}.Validate()
		if err == nil || !strings.Contains(err.Error(), "ArrivalRate") {
			t.Errorf("ArrivalRate %v: got %v, want an error naming the field", rate, err)
		}
	}
}

type discard struct{}

func (*discard) Write(p []byte) (int, error) { return len(p), nil }
