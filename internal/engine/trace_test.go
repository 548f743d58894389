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
	live := run(t, quickConfig(300))

	var traceBuf bytes.Buffer
	rec := quickConfig(300)
	rec.Record = &traceBuf
	recorded := run(t, rec)
	if !reflect.DeepEqual(stripped(recorded), stripped(live)) {
		t.Fatalf("recording perturbed the run:\n%v\n%v", recorded, live)
	}

	rep := quickConfig(300)
	rep.Replay = bytes.NewReader(traceBuf.Bytes())
	replayed := run(t, rep)
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
	rec := quickConfig(300)
	rec.Record = &traceBuf
	run(t, rec)

	results := make([]Results, 0, 2)
	for _, repl := range []core.Replacement{core.ReplLRU, core.ReplRandom} {
		cfg := quickConfig(300)
		cfg.Replacement = repl
		cfg.Replay = bytes.NewReader(traceBuf.Bytes())
		results = append(results, run(t, cfg))
	}
	a, b := results[0], results[1]
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
	rec := quickConfig(100)
	rec.Record = &traceBuf
	run(t, rec)

	cfg := quickConfig(200) // needs more transactions than the trace holds
	cfg.Replay = bytes.NewReader(traceBuf.Bytes())
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("run on an exhausted trace succeeded")
	}
}

func TestTraceRecordCountsAllTransactions(t *testing.T) {
	var traceBuf bytes.Buffer
	cfg := quickConfig(100)
	cfg.Record = &traceBuf
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err != nil {
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
	cfg := quickConfig(200)
	cfg.Workload = WorkloadOCB
	cfg.PhasedRW = []float64{2, 60}
	res := run(t, cfg)
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
	flat := quickConfig(400)
	flat.Workload = WorkloadOCB
	flat.OCB.ReadWriteRatio = 20

	phased := flat
	phased.PhasedRW = []float64{20, 0.25}

	flatRes := run(t, flat)
	phasedRes := run(t, phased)
	if phasedRes.RatioChangesIgnored != 0 {
		t.Fatalf("write-enabled generator refused %d ratio changes",
			phasedRes.RatioChangesIgnored)
	}
	if phasedRes.WriteTxns <= flatRes.WriteTxns {
		t.Fatalf("write-heavy phase had no effect: phased %d writes <= flat %d",
			phasedRes.WriteTxns, flatRes.WriteTxns)
	}
}
