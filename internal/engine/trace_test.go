package engine

import (
	"bytes"
	"reflect"
	"testing"

	"oodb/internal/core"
	"oodb/internal/trace"
	"oodb/internal/workload"
)

// stripped clears the attachment-only Config field so two Results can be
// compared with reflect.DeepEqual regardless of trace sinks.
func stripped(r Results) Results {
	r.Config = Config{}
	return r
}

// TestTraceRecordLiveReplayIdentity is the trace gate: a recorded run is
// byte-identical to a live one, and replaying the recorded trace under the
// same wiring reproduces the run a third time.
func TestTraceRecordLiveReplayIdentity(t *testing.T) {
	live := octSmall.run(t, octSmall.config(300))

	var traceBuf bytes.Buffer
	rec := octSmall.config(300)
	rec.Record = &traceBuf
	recorded := octSmall.run(t, rec)
	if !reflect.DeepEqual(stripped(recorded), stripped(live)) {
		t.Fatalf("recording perturbed the run:\n%v\n%v", recorded, live)
	}

	rep := octSmall.config(300)
	rep.Replay = bytes.NewReader(traceBuf.Bytes())
	replayed := octSmall.run(t, rep)
	if !reflect.DeepEqual(stripped(replayed), stripped(live)) {
		t.Fatalf("replay diverged from live run:\n%v\n%v", replayed, live)
	}
}

// TestTraceReplayComparesPolicies replays one recorded access stream
// against two replacement policies — the paper-style controlled comparison
// the trace format exists for. Both runs must execute the identical logical
// transaction stream while their physical behavior differs.
func TestTraceReplayComparesPolicies(t *testing.T) {
	var traceBuf bytes.Buffer
	rec := octSmall.config(300)
	rec.Record = &traceBuf
	octSmall.run(t, rec)

	// The recording's own world runs LRU; Random replacement is another.
	lru := octSmall.config(300)
	lru.Replay = bytes.NewReader(traceBuf.Bytes())
	random := lru
	random.Replacement = core.ReplRandom
	random.Replay = bytes.NewReader(traceBuf.Bytes())
	a, b := octSmall.run(t, lru), run(t, random)
	if a.Completed != b.Completed || !reflect.DeepEqual(a.KindCount, b.KindCount) {
		t.Fatalf("replays diverged on the logical stream:\n%v\n%v", a.KindCount, b.KindCount)
	}
	if a.LogicalOps != b.LogicalOps {
		t.Fatalf("logical work differs: %d vs %d", a.LogicalOps, b.LogicalOps)
	}
	if a.HitRatio == b.HitRatio && a.PhysReads == b.PhysReads {
		t.Fatal("different replacement policies behaved identically under replay")
	}
}

func TestTraceReplayExhaustion(t *testing.T) {
	var traceBuf bytes.Buffer
	rec := octSmall.config(100)
	rec.Record = &traceBuf
	octSmall.run(t, rec)

	cfg := octSmall.config(200) // needs more transactions than the trace holds
	cfg.Replay = bytes.NewReader(traceBuf.Bytes())
	if _, err := octSmall.engine(t, cfg).Run(); err == nil {
		t.Fatal("run on an exhausted trace succeeded")
	}
}

func TestTraceRecordCountsAllTransactions(t *testing.T) {
	var traceBuf bytes.Buffer
	cfg := octSmall.config(100)
	cfg.Record = &traceBuf
	if _, err := octSmall.engine(t, cfg).Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r, err := trace.NewReader(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	n := 0
	for {
		var txn workload.Op
		if err := r.Next(&txn); err != nil {
			break
		}
		n++
	}
	if n < cfg.Transactions {
		t.Fatalf("trace holds %d records, want >= %d", n, cfg.Transactions)
	}
}

// TestPhasedRatioRefusedByReadOnlyOCB: a read-only OCB stream cannot honor
// phased ratio changes; the refusal must be surfaced in the results, not
// silently dropped.
func TestPhasedRatioRefusedByReadOnlyOCB(t *testing.T) {
	t.Parallel()
	cfg := ocbSmall.config(200)
	cfg.PhasedRW = []float64{2, 60}
	res := ocbSmall.run(t, cfg)
	if res.RatioChangesIgnored == 0 {
		t.Fatal("read-only OCB stream silently accepted phased ratio changes")
	}
	if res.WriteTxns != 0 {
		t.Fatalf("read-only OCB stream executed %d writes", res.WriteTxns)
	}
}

// TestPhasedWriteRatioShiftsOCBMix: the phased ratio must actually steer the
// write-enabled OCB generator — a run whose second phase is write-heavy
// completes more writes than the same run held at the read-heavy ratio.
func TestPhasedWriteRatioShiftsOCBMix(t *testing.T) {
	t.Parallel()
	flat := ocbAt(octSmall.config(400), 20)
	phased := flat
	phased.PhasedRW = []float64{20, 0.25}

	w := newFixture(flat)
	flatRes := w.run(t, flat)
	phasedRes := w.run(t, phased)
	if phasedRes.RatioChangesIgnored != 0 {
		t.Fatalf("write-enabled generator refused %d ratio changes",
			phasedRes.RatioChangesIgnored)
	}
	if phasedRes.WriteTxns <= flatRes.WriteTxns {
		t.Fatalf("write-heavy phase had no effect: phased %d writes <= flat %d",
			phasedRes.WriteTxns, flatRes.WriteTxns)
	}
}
