package engine

import (
	"bytes"
	"reflect"
	"testing"

	"oodb/internal/model"
	"oodb/internal/workload"
)

// TestOCBSameSeedIdentical: an OCB run is a deterministic function of its
// configuration — two runs of the same config produce identical results,
// while a different seed draws a different stream.
func TestOCBSameSeedIdentical(t *testing.T) {
	t.Parallel()
	cfg := ocbSmall.config(400)
	a := ocbSmall.run(t, cfg)
	b := ocbSmall.run(t, cfg)
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
	c := run(t, other)
	if c.LogicalDigest == a.LogicalDigest {
		t.Fatal("different seeds produced identical logical digests")
	}
}

// TestOCBRecordReplayIdentity: a recorded run and a replay of the recording
// under the same configuration match an unrecorded run byte for byte, and
// replaying it under a different replacement policy reproduces the logical
// results (the digest) while the physical behavior is free to differ.
//
// The phased case is a write-enabled stream whose read/write ratio shifts
// mid-run: the generator must carry its ratio and object-base tail across
// the phase boundaries identically in every run, so it also runs twice. The
// read-only case's same-seed run is TestOCBSameSeedIdentical's. Each case
// builds its world once; the runs under another replacement policy build
// their own.
func TestOCBRecordReplayIdentity(t *testing.T) {
	t.Parallel()
	phased := ocbAt(octSmall.config(300), 4)
	phased.PhasedRW = []float64{8, 1.5, 30}
	for _, tc := range []struct {
		name string
		w    *fixture
		cfg  Config
	}{
		{"read-only", ocbSmall, ocbSmall.config(400)},
		{"phased-writes", newFixture(phased), phased},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.w.run(t, tc.cfg)
			if tc.cfg.PhasedRW != nil {
				if base.WriteTxns == 0 || base.RatioChangesIgnored != 0 {
					t.Fatalf("phased stream wrote %d times and refused %d ratio changes",
						base.WriteTxns, base.RatioChangesIgnored)
				}
				if again := tc.w.run(t, tc.cfg); !reflect.DeepEqual(stripped(again), stripped(base)) {
					t.Fatal("same-seed runs diverged")
				}
			}

			recCfg := tc.cfg
			var buf bytes.Buffer
			recCfg.Record = &buf
			rec := tc.w.run(t, recCfg)
			if !reflect.DeepEqual(stripped(rec), stripped(base)) {
				t.Fatal("recording changed the run")
			}

			repCfg := tc.cfg
			repCfg.Replay = bytes.NewReader(buf.Bytes())
			rep := tc.w.run(t, repCfg)
			if !reflect.DeepEqual(stripped(rep), stripped(base)) {
				t.Fatal("same-config replay diverged from the recorded run")
			}

			polCfg := tc.cfg
			polCfg.Replay = bytes.NewReader(buf.Bytes())
			polCfg.Replacement = "clock"
			pol := run(t, polCfg)
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

// TestNoteOCBAccessAllocFree: attributing buffer hits to the OCB write kinds
// allocates nothing — the stack's per-read hit count and the serial driver's
// per-kind fold alike. The access layer sits under every buffer touch, so
// any allocation here would be per-I/O overhead.
func TestNoteOCBAccessAllocFree(t *testing.T) {
	e, err := New(ocbSmall.config(1))
	if err != nil {
		t.Fatal(err)
	}
	st := e.access.(*stack)
	// Construction leaves the pool warm: find an object on a resident page.
	id := model.NilObject
	e.graph.ForEachObject(func(o *model.Object) {
		if id == model.NilObject && e.frames.Contains(e.store.PageOf(o.ID)) {
			id = o.ID
		}
	})
	if id == model.NilObject {
		t.Fatal("no object on a resident page")
	}
	kinds := []workload.QueryKind{
		workload.QOCBInsert, workload.QOCBDelete,
		workload.QOCBUpdate, workload.QOCBRewire,
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, k := range kinds {
			st.hits = 0
			if _, err := st.readObject(nil, id, false, false); err != nil {
				t.Fatal(err)
			}
			e.metrics.note(k, AccessResult{Hits: st.hits})
		}
	}); n != 0 {
		t.Fatalf("per-kind hit accounting allocates %v per run", n)
	}
	for _, k := range kinds {
		if e.metrics.perKindHits[k] == 0 {
			t.Errorf("kind %v: no hits counted", k)
		}
	}
}

// TestOCBWriteKindsInstrumented: a write-enabled OCB run attributes buffer
// hits and physical I/O to the write kinds end to end, in Results.
func TestOCBWriteKindsInstrumented(t *testing.T) {
	t.Parallel()
	res := ocbWrites.run(t, ocbWrites.config(400))
	if res.WriteTxns == 0 {
		t.Fatal("write-enabled OCB run completed no writes")
	}
	var hits, ios int
	for _, k := range []workload.QueryKind{
		workload.QOCBInsert, workload.QOCBDelete, workload.QOCBUpdate, workload.QOCBRewire,
	} {
		hits += res.KindHits[k.String()]
		ios += res.KindIOs[k.String()]
	}
	if hits == 0 || ios == 0 {
		t.Fatalf("write kinds were attributed %d hits and %d I/Os", hits, ios)
	}
	// The per-kind hits are the logical reads'; the pool also counts the
	// clusterer's and the prefetcher's accesses, so it never sees fewer.
	hits = 0
	for _, n := range res.KindHits {
		hits += n
	}
	if hits > res.Pool.Hits {
		t.Fatalf("the kinds claim %d hits, the pool counted %d", hits, res.Pool.Hits)
	}
}

// TestOCBPerKindAccounting: an OCB run attributes every completed
// transaction, and its response time and I/Os, to one of the four OCB kinds.
func TestOCBPerKindAccounting(t *testing.T) {
	t.Parallel()
	res := ocbSmall.run(t, ocbSmall.config(400))
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
