package engine

import (
	"os"
	"reflect"
	"runtime"
	"testing"

	"oodb/internal/model"
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

// TestBytesPerObject is the memory ratchet for the object graph: the live
// heap a built default-tier database holds, over its object count, on
// either workload family. The objects, their relationship lists and the
// page map are nearly all of it, so a wider model.Object or a per-object
// allocation shows up here, and so would construction-only state the world
// kept. The heap reading is a post-GC delta across New, so earlier tests'
// garbage does not count.
func TestBytesPerObject(t *testing.T) {
	oct, err := TierConfig("")
	if err != nil {
		t.Fatal(err)
	}
	ocbCfg := oct
	ocbCfg.Workload = WorkloadOCB
	for _, leg := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"oct", oct, 110},
		{"ocb", ocbCfg, 135},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e, err := New(leg.cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", leg.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		n := e.graph.NumObjects()
		if e.db != nil && e.db.Families != nil {
			t.Errorf("%s: the world keeps the construction-only family sequences", leg.name)
		}
		runtime.KeepAlive(e)
		perObject := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
		t.Logf("%s default tier: %d objects, %.0f live heap bytes per object", leg.name, n, perObject)
		if perObject > leg.ceiling {
			t.Errorf("%s default tier holds %.0f bytes per object, above the %.0f B ratchet", leg.name, perObject, leg.ceiling)
		}
	}
}

// TestGeneratedObjectsUnnamed: neither workload generator nor a run's
// creations name an object, so a generated graph never allocates its name
// table. Naming them again costs 16 B plus the string on every object.
func TestGeneratedObjectsUnnamed(t *testing.T) {
	for name, w := range map[string]*fixture{"oct": octSmall, "ocb": ocbWrites} {
		e := w.engine(t, w.config(300))
		if _, err := e.Run(); err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		e.graph.ForEachObject(func(o *model.Object) {
			if n := e.graph.Name(o.ID); n != "" {
				t.Fatalf("%s: object %d is named %q", name, o.ID, n)
			}
		})
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
