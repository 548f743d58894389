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
