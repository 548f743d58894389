package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckpointModeMatchesPlainRender is the harness-level headline gate:
// routing every simulation through serialize-checkpoint-and-resume must
// leave the rendered figures byte-identical. fig5.2 covers the clustering
// sweep; fig6.1 (long mode) covers the 2^8 factorial batch.
func TestCheckpointModeMatchesPlainRender(t *testing.T) {
	for _, k := range []int{7, 60} {
		for _, c := range goldenCases(testing.Short()) {
			opt := c.opt
			opt.Workers = 2
			opt.CheckpointEachAt = k
			assertMatchesPlain(t, c, fmt.Sprintf("checkpoint-at-%d", k), opt)
		}
	}
}

// TestCheckpointBeyondRunFallsBack: a checkpoint position past the run's
// budget cannot be honored; the run must complete plainly, not fail.
func TestCheckpointBeyondRunFallsBack(t *testing.T) {
	o := tinyOptions()
	plain := NewHarness(o)
	base, err := plain.Run(plain.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	o.CheckpointEachAt = o.Transactions * 10
	h := NewHarness(o)
	res, err := h.Run(h.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, base) {
		t.Fatal("fallback run diverged from plain run")
	}
}

// TestCheckpointDirResume simulates a killed batch: the first harness runs
// with a checkpoint directory (persisting per-config checkpoints), then a
// second harness — fresh caches, same directory — must resume from the
// files and produce identical results.
func TestCheckpointDirResume(t *testing.T) {
	dir := t.TempDir()
	o := tinyOptions()
	o.CheckpointEachAt = 100
	o.CheckpointDir = dir

	first := NewHarness(o)
	cfg := first.baseConfig()
	res1, err := first.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no checkpoint persisted (err=%v)", err)
	}

	second := NewHarness(o)
	res2, err := second.Run(second.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatal("resumed batch diverged from original")
	}

	// A corrupt checkpoint file must be tolerated: run fresh, same result.
	if err := os.WriteFile(files[0], []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := NewHarness(o)
	res3, err := third.Run(third.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res3) {
		t.Fatal("fresh run after corrupt checkpoint diverged")
	}
}

// TestFlashCrowdConfigsDistinct: two configurations differing only in the
// flash-crowd fields (the tournament varies them) are different runs — they
// must share neither a memo slot nor a -ckpt-dir file.
func TestFlashCrowdConfigsDistinct(t *testing.T) {
	o := tinyOptions()
	o.Transactions = 100
	o.CheckpointDir = t.TempDir()
	h := NewHarness(o)
	calm := h.baseConfig()
	flash := calm
	flash.FlashFactor, flash.FlashAt, flash.FlashLen = 8, 20, 40

	if a, b := h.checkpointPath(calm), h.checkpointPath(flash); a == b {
		t.Errorf("calm and flash-crowd runs share checkpoint file %s", a)
	}
	calmRes, err := h.Run(calm)
	if err != nil {
		t.Fatal(err)
	}
	flashRes, err := h.Run(flash)
	if err != nil {
		t.Fatal(err)
	}
	if h.Executed() != 2 {
		t.Fatalf("executed %d runs, want 2 (a flash crowd must not share a memo key with the calm run)", h.Executed())
	}
	if calmRes.MeanResponse == flashRes.MeanResponse {
		t.Error("flash crowd left the mean response time unchanged")
	}
}
