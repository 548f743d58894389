package engine

import (
	"errors"
	"os"
	"reflect"
	"runtime"
	"testing"

	"oodb/internal/sim"
)

// TestTierConfigsValid: every tier builds a configuration that passes
// validation, and the default tier is byte-identical to DefaultConfig —
// the paper figures must not move when tiers are introduced.
func TestTierConfigsValid(t *testing.T) {
	for _, name := range TierNames() {
		cfg, err := TierConfig(name)
		if err != nil {
			t.Fatalf("TierConfig(%q): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("tier %q invalid: %v", name, err)
		}
	}
	def, _ := TierConfig("")
	if !reflect.DeepEqual(def, DefaultConfig(0.05)) {
		t.Error("default tier differs from DefaultConfig(0.05)")
	}
	if _, err := TierConfig("huge"); err == nil {
		t.Error("unknown tier accepted")
	}
	if !TierCheckpointable(TierMedium) || TierCheckpointable(TierLarge) {
		t.Error("checkpointability flags wrong")
	}
}

// TestCalendarFullRunIdentical runs the same configuration under each
// registered event calendar and asserts the complete Results are identical —
// the calendar is a data structure choice, not a behavior choice.
func TestCalendarFullRunIdentical(t *testing.T) {
	cfg := quickConfig(300)
	base := run(t, cfg)
	for _, kind := range sim.CalendarKinds() {
		c := cfg
		c.Calendar = kind
		res := run(t, c)
		res.Config.Calendar = cfg.Calendar
		if !reflect.DeepEqual(stripped(res), stripped(base)) {
			t.Errorf("calendar %q diverged from default:\n%v\n%v", kind, res, base)
		}
	}
}

// TestCheckpointAcrossScaleMechanics: the calendar is excluded from the
// configuration fingerprint, so a checkpoint taken under the heap resumes
// under the wheel (and vice versa) with a byte-identical continuation — the
// scale-migration path.
func TestCheckpointAcrossScaleMechanics(t *testing.T) {
	t.Parallel()
	plain := quickConfig(300)
	scaled := plain
	scaled.Calendar = sim.CalendarWheel

	baseline := run(t, plain)
	for _, tc := range []struct {
		name     string
		from, to Config
	}{
		{"plain-to-scaled", plain, scaled},
		{"scaled-to-plain", scaled, plain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.from)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			ck, err := e.RunToCheckpoint(150)
			if err != nil {
				t.Fatalf("RunToCheckpoint: %v", err)
			}
			resumed := resumeFromBytes(t, tc.to, ck)
			res, err := resumed.Run()
			if err != nil {
				t.Fatalf("Run after resume: %v", err)
			}
			res.Config = Config{}
			if !reflect.DeepEqual(res, stripped(baseline)) {
				t.Fatalf("resume across scale mechanics diverged:\n%v\n%v", res, baseline)
			}
		})
	}
}

// TestCheckpointConfigMismatchTyped: restoring under a genuinely different
// configuration fails with the typed sentinel, so callers can distinguish
// "stale file, regenerate" from I/O failures.
func TestCheckpointConfigMismatchTyped(t *testing.T) {
	cfg := quickConfig(100)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ck, err := e.RunToCheckpoint(20)
	if err != nil {
		t.Fatalf("RunToCheckpoint: %v", err)
	}
	other := cfg
	other.StatsReservoir = 64 // changes observable percentiles → in the fingerprint
	if _, err := Resume(other, ck); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("got %v, want ErrConfigMismatch", err)
	}
}

// TestReservoirMetricsBounded: with StatsReservoir set, the response tallies
// keep a bounded sample no matter how many transactions complete, while the
// streamed moments still see every completion.
func TestReservoirMetricsBounded(t *testing.T) {
	cfg := quickConfig(600)
	cfg.StatsReservoir = 32
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != cfg.Transactions {
		t.Fatalf("completed %d, want %d", res.Completed, cfg.Transactions)
	}
	st := e.metrics.respAll.Snapshot()
	if st.N != cfg.Transactions {
		t.Errorf("tally saw %d samples, want %d", st.N, cfg.Transactions)
	}
	if len(st.Keep) > cfg.StatsReservoir {
		t.Errorf("tally retained %d samples, cap %d", len(st.Keep), cfg.StatsReservoir)
	}
	if res.MeanResponse <= 0 || res.P95Response <= 0 {
		t.Errorf("degenerate response stats: mean=%v p95=%v", res.MeanResponse, res.P95Response)
	}
}

// TestScaleMemoryBounded is the runtime.MemStats audit: after a scaled OCB
// run, the live heap must be proportional to objects+pages+users — not to
// the transaction count. Doubling the transaction budget must leave the
// retained heap essentially unchanged once reservoir statistics are on.
//
// Live-heap readings wobble with GC scheduling, so the growth bound is
// generous (8 MB) next to what per-transaction retention would cost
// (hundreds of thousands of tally samples and trace records).
func TestScaleMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory audit needs a full medium-tier run")
	}
	cfg, err := TierConfig(TierMedium)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Transactions = 1000

	liveHeapAfter := func(txns int) uint64 {
		c := cfg
		c.Transactions = txns
		e, err := New(c)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		runtime.KeepAlive(e)
		return m.HeapAlloc
	}

	small := liveHeapAfter(cfg.Transactions)
	large := liveHeapAfter(cfg.Transactions * 4)
	if large > small && large-small > 8<<20 {
		t.Errorf("live heap grew %d bytes from %dx transactions (small=%d large=%d); metrics are not O(1) in run length",
			large-small, 4, small, large)
	}
}

// TestLargeTierMemory runs the full 100k-user large tier and enforces its
// peak-memory budget. Minutes of wall clock, so it only runs when asked:
//
//	OODB_SCALE_LARGE=1 go test -run TestLargeTierMemory -timeout 30m ./internal/engine/
func TestLargeTierMemory(t *testing.T) {
	if os.Getenv("OODB_SCALE_LARGE") == "" {
		t.Skip("set OODB_SCALE_LARGE=1 to run the 100k-user tier")
	}
	cfg, err := TierConfig(TierLarge)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed != cfg.Transactions {
		t.Fatalf("completed %d, want %d", res.Completed, cfg.Transactions)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(e)
	const budget = 8 << 30
	if m.HeapSys > budget {
		t.Errorf("heap footprint %d exceeds the %d budget", m.HeapSys, uint64(budget))
	}
	t.Logf("large tier: %d txns, %d events, sim time %.1fs, peak heap %.1f MB",
		res.Completed, e.EventsExecuted(), res.SimTime, float64(m.HeapSys)/(1<<20))
}
