package engine

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"oodb/internal/checkpoint"
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

// resumeFromBytes round-trips a checkpoint through its wire format and
// resumes a fresh engine from it — the full kill-and-restart path.
func resumeFromBytes(t *testing.T, cfg Config, ck *Checkpoint) *Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	loaded, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("ReadCheckpoint: %v", err)
	}
	e, err := Resume(cfg, loaded)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	return e
}

// checkResumeIdentity checkpoints cfg's run at k completed transactions,
// resumes from the serialized checkpoint, and asserts the continued run is
// identical to an uninterrupted one — the tentpole gate.
func checkResumeIdentity(t *testing.T, cfg Config, k int) {
	t.Helper()
	baseline := run(t, cfg)

	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ck, err := e.RunToCheckpoint(k)
	if err != nil {
		t.Fatalf("RunToCheckpoint(%d): %v", k, err)
	}
	if ck.Completed < k {
		t.Fatalf("checkpoint at %d completions, want >= %d", ck.Completed, k)
	}

	// The checkpointed engine stays live: finishing it must match too.
	cont, err := e.Run()
	if err != nil {
		t.Fatalf("Run after checkpoint: %v", err)
	}
	if !reflect.DeepEqual(stripped(cont), stripped(baseline)) {
		t.Fatalf("k=%d: continued run diverged from baseline:\n%v\n%v", k, cont, baseline)
	}

	resumed := resumeFromBytes(t, cfg, ck)
	res, err := resumed.Run()
	if err != nil {
		t.Fatalf("Run after resume: %v", err)
	}
	if !reflect.DeepEqual(stripped(res), stripped(baseline)) {
		t.Fatalf("k=%d: resumed run diverged from baseline:\n%v\n%v", k, res, baseline)
	}
	if err := resumed.store.CheckInvariants(); err != nil {
		t.Fatalf("storage invariants after resumed run: %v", err)
	}
}

func TestCheckpointResumeIdentity(t *testing.T) {
	t.Parallel()
	cfg := quickConfig(400)
	// Early (buffer pool still cold), mid, and late (one quiescent pause
	// before the end) checkpoint positions.
	for _, k := range []int{3, 200, 390} {
		checkResumeIdentity(t, cfg, k)
	}
}

// TestCheckpointResumeIdentityWirings exercises the restore path of every
// stateful component the default wiring doesn't touch: alternative
// replacement policies (paper enum and name registry), the noop cluster
// strategy, prefetching with the context-sensitive policy, the adaptive
// clusterer with a phased workload, and a lock-free run.
func TestCheckpointResumeIdentityWirings(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"random-replacement", func(c *Config) { c.Replacement = core.ReplRandom }},
		{"clock-by-name", func(c *Config) { c.ReplacementName = "clock" }},
		{"noop-strategy", func(c *Config) { c.ClusterStrategy = "noop" }},
		{"prefetch-context", func(c *Config) {
			c.Prefetch = core.PrefetchWithinDB
			c.ReplacementName = "context-sensitive"
		}},
		{"adaptive-phased", func(c *Config) {
			c.AdaptiveClustering = true
			c.PhasedRW = []float64{2, 60}
		}},
		{"no-locking", func(c *Config) { c.Locking = false }},
		{"warmup", func(c *Config) { c.Warmup = 80 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickConfig(250)
			tc.mutate(&cfg)
			checkResumeIdentity(t, cfg, 120)
		})
	}
}

// TestCheckpointResumePhasedWriteRatioOCB: a write-enabled OCB stream whose
// read/write ratio shifts mid-run through PhasedRW must checkpoint and
// resume byte-identically. The resume positions straddle the phase
// boundaries, so the restored generator tail must carry the mid-run ratio
// state (Counts, RNG position, object-base tail) exactly.
func TestCheckpointResumePhasedWriteRatioOCB(t *testing.T) {
	t.Parallel()
	cfg := quickConfig(300)
	cfg.Workload = WorkloadOCB
	cfg.OCB.ReadWriteRatio = 4
	cfg.PhasedRW = []float64{8, 1.5, 30}

	baseline := run(t, cfg)
	if baseline.WriteTxns == 0 {
		t.Fatal("phased write-enabled OCB run produced no writes")
	}
	if baseline.RatioChangesIgnored != 0 {
		t.Fatalf("write-enabled OCB generator refused %d ratio changes",
			baseline.RatioChangesIgnored)
	}

	for _, k := range []int{60, 150, 280} {
		checkResumeIdentity(t, cfg, k)
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

func TestCheckpointRequiresProgress(t *testing.T) {
	cfg := quickConfig(50)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.RunToCheckpoint(0); err == nil {
		t.Fatal("RunToCheckpoint(0) accepted")
	}
	// Far past the run's natural end: the calendar drains first.
	if _, err := e.RunToCheckpoint(1 << 30); err == nil {
		t.Fatal("unreachable checkpoint position accepted")
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
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
	other.Seed++
	if _, err := Resume(other, ck); err == nil {
		t.Fatal("checkpoint restored under a different configuration")
	}
	// Attachment-only fields don't change the fingerprint.
	attached := cfg
	attached.Trace = &bytes.Buffer{}
	if _, err := Resume(attached, ck); err != nil {
		t.Fatalf("trace sink changed the fingerprint: %v", err)
	}
}

func TestCheckpointRejectsTraceModes(t *testing.T) {
	cfg := quickConfig(100)
	cfg.Record = &bytes.Buffer{}
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.RunToCheckpoint(10); err == nil {
		t.Fatal("checkpoint of a recording run accepted")
	}

	plain := quickConfig(100)
	p, err := New(plain)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ck, err := p.RunToCheckpoint(10)
	if err != nil {
		t.Fatalf("RunToCheckpoint: %v", err)
	}
	withRecord := plain
	withRecord.Record = &bytes.Buffer{}
	if _, err := Resume(withRecord, ck); err == nil {
		t.Fatal("resume with Record accepted")
	}
}

func TestReadCheckpointRejectsCorruptInput(t *testing.T) {
	cfg := quickConfig(60)
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ck, err := e.RunToCheckpoint(10)
	if err != nil {
		t.Fatalf("RunToCheckpoint: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	good := buf.Bytes()

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, checkpoint.ErrCorrupt},
		{"garbage", []byte("not a checkpoint at all"), checkpoint.ErrCorrupt},
		{"truncated", good[:len(good)/2], checkpoint.ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadCheckpoint(bytes.NewReader(tc.data))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
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
