package engine

import (
	"os"
	"reflect"
	"runtime"
	"testing"
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
}

// TestScaleMemoryBounded is the runtime.MemStats audit: after a scaled OCB
// run, the live heap must be proportional to objects+pages+users — not to
// the transaction count. Quadrupling the transaction budget must leave the
// retained heap essentially unchanged: a completed transaction leaves
// nothing behind (response times fold into moments and a fixed-size
// histogram).
//
// Live-heap readings wobble with GC scheduling, so the growth bound is
// generous (8 MB) next to what retaining per-transaction state (response
// samples, trace records, lock or log entries) would cost.
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
		t.Errorf("live heap grew %d bytes from %dx transactions (small=%d large=%d); the run retains per-transaction state",
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
