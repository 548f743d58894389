package engine

import (
	"bytes"
	"reflect"
	"testing"

	"oodb/internal/obs"
	"oodb/internal/workload"
)

func quickOCBConfig(txns int) Config {
	cfg := quickConfig(txns)
	cfg.Workload = WorkloadOCB
	return cfg
}

func runOCB(t *testing.T, cfg Config) Results {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestOCBSameSeedIdentical: an OCB run is a deterministic function of its
// configuration — two runs of the same config produce identical results.
func TestOCBSameSeedIdentical(t *testing.T) {
	t.Parallel()
	cfg := quickOCBConfig(400)
	a := runOCB(t, cfg)
	b := runOCB(t, cfg)
	if !reflect.DeepEqual(stripped(a), stripped(b)) {
		t.Fatalf("same-seed OCB runs diverged:\n%v\n%v", a, b)
	}
	if a.LogicalDigest == 0 {
		t.Fatal("OCB run produced a zero logical digest")
	}
	if a.WriteTxns != 0 {
		t.Fatalf("OCB run completed %d write transactions, want 0", a.WriteTxns)
	}
	other := cfg
	other.Seed++
	c := runOCB(t, other)
	if c.LogicalDigest == a.LogicalDigest {
		t.Fatal("different seeds produced identical logical digests")
	}
}

// TestOCBRecordReplayIdentity: an OCB run is a function of its
// configuration — the same seed twice, a recorded run and a replay of the
// recording under the same configuration all match byte for byte — and
// replaying it under a different replacement policy reproduces the logical
// results (the digest) while the physical behavior is free to differ.
//
// The phased case is a write-enabled stream whose read/write ratio shifts
// mid-run: the generator must carry its ratio and object-base tail across
// the phase boundaries identically in every run.
func TestOCBRecordReplayIdentity(t *testing.T) {
	t.Parallel()
	phased := quickOCBConfig(300)
	phased.OCB.ReadWriteRatio = 4
	phased.PhasedRW = []float64{8, 1.5, 30}
	for name, cfg := range map[string]Config{"read-only": quickOCBConfig(400), "phased-writes": phased} {
		t.Run(name, func(t *testing.T) {
			base := runOCB(t, cfg)
			if cfg.PhasedRW != nil && (base.WriteTxns == 0 || base.RatioChangesIgnored != 0) {
				t.Fatalf("phased stream wrote %d times and refused %d ratio changes",
					base.WriteTxns, base.RatioChangesIgnored)
			}
			if again := runOCB(t, cfg); !reflect.DeepEqual(stripped(again), stripped(base)) {
				t.Fatal("same-seed runs diverged")
			}

			recCfg := cfg
			var buf bytes.Buffer
			recCfg.Record = &buf
			rec := runOCB(t, recCfg)
			if !reflect.DeepEqual(stripped(rec), stripped(base)) {
				t.Fatal("recording changed the run")
			}

			repCfg := cfg
			repCfg.Replay = bytes.NewReader(buf.Bytes())
			rep := runOCB(t, repCfg)
			if !reflect.DeepEqual(stripped(rep), stripped(base)) {
				t.Fatal("same-config replay diverged from the recorded run")
			}

			polCfg := cfg
			polCfg.Replay = bytes.NewReader(buf.Bytes())
			polCfg.ReplacementName = "clock"
			pol := runOCB(t, polCfg)
			if pol.LogicalDigest != base.LogicalDigest {
				t.Fatalf("logical digest diverged across policies: %016x vs %016x",
					pol.LogicalDigest, base.LogicalDigest)
			}
			if pol.LogicalOps != base.LogicalOps || pol.Completed != base.Completed {
				t.Fatalf("logical totals diverged across policies: ops %d/%d txns %d/%d",
					pol.LogicalOps, base.LogicalOps, pol.Completed, base.Completed)
			}
		})
	}
}

// TestNoteOCBAccessAllocFree: attributing buffer accesses to the OCB write
// kinds allocates nothing — on the uninstrumented (nil recorder) path and on
// the live recording path alike. The access layer sits under every buffer
// touch, so any allocation here would be per-I/O overhead.
func TestNoteOCBAccessAllocFree(t *testing.T) {
	kinds := []workload.QueryKind{
		workload.QOCBInsert, workload.QOCBDelete,
		workload.QOCBUpdate, workload.QOCBRewire,
	}

	bare := &stack{} // rec == nil: the uninstrumented fast path
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range kinds {
			bare.curKind = k
			bare.noteOCBAccess(true)
			bare.noteOCBAccess(false)
		}
	}); n != 0 {
		t.Fatalf("nil-recorder noteOCBAccess allocates %v per run", n)
	}

	c := &obs.Counters{}
	inst := &stack{rec: c}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range kinds {
			inst.curKind = k
			inst.noteOCBAccess(true)
			inst.noteOCBAccess(false)
		}
	}); n != 0 {
		t.Fatalf("recording noteOCBAccess allocates %v per run", n)
	}
	for _, ev := range []obs.Event{
		obs.OCBInsertHit, obs.OCBInsertIO, obs.OCBDeleteHit, obs.OCBDeleteIO,
		obs.OCBUpdateHit, obs.OCBUpdateIO, obs.OCBRewireHit, obs.OCBRewireIO,
	} {
		if c.CountOf(ev) == 0 {
			t.Errorf("event %v never counted", ev)
		}
	}
}

// TestOCBWriteKindsInstrumented: a write-enabled OCB run with a recorder
// attached attributes buffer traffic to the write-kind events end to end.
func TestOCBWriteKindsInstrumented(t *testing.T) {
	t.Parallel()
	cfg := quickOCBConfig(400)
	cfg.OCB.ReadWriteRatio = 2
	c := &obs.Counters{}
	cfg.Recorder = c
	res := runOCB(t, cfg)
	if res.WriteTxns == 0 {
		t.Fatal("write-enabled OCB run completed no writes")
	}
	var total int64
	for _, ev := range []obs.Event{
		obs.OCBInsertHit, obs.OCBInsertIO, obs.OCBDeleteHit, obs.OCBDeleteIO,
		obs.OCBUpdateHit, obs.OCBUpdateIO, obs.OCBRewireHit, obs.OCBRewireIO,
	} {
		total += c.CountOf(ev)
	}
	if total == 0 {
		t.Fatal("no buffer accesses attributed to any OCB write kind")
	}
}

// TestOCBPerKindAccounting: an OCB run attributes every completed
// transaction, and its response time and I/Os, to one of the four OCB kinds.
func TestOCBPerKindAccounting(t *testing.T) {
	t.Parallel()
	res := runOCB(t, quickOCBConfig(400))
	kinds := []workload.QueryKind{
		workload.QOCBScan, workload.QOCBSimple,
		workload.QOCBHierarchy, workload.QOCBStochastic,
	}
	var total int
	for _, k := range kinds {
		total += res.KindCount[k.String()]
	}
	if total != res.Completed {
		t.Fatalf("OCB kind counts sum to %d, want %d completed", total, res.Completed)
	}
	for name := range res.KindCount {
		ok := false
		for _, k := range kinds {
			if name == k.String() {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("OCB run completed non-OCB kind %q", name)
		}
	}
}
