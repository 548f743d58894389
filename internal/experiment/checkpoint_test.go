package experiment

import (
	"os"
	"reflect"
	"testing"

	"oodb/internal/engine"
)

// TestCheckpointDirResume simulates a killed and restarted batch: a harness
// with a results directory stores each finished configuration, and a
// second harness — fresh memo, same directory — serves every one of them
// without executing anything. A corrupt file, or one holding another
// configuration's results, means a fresh run with the same result.
func TestCheckpointDirResume(t *testing.T) {
	o := figure
	o.CheckpointDir = t.TempDir()

	first := NewHarness(o)
	base := first.baseConfig()
	other := base
	other.Seed++
	cfgs := []engine.Config{base, other}
	want, err := first.RunConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if n := first.Executed(); n != 2 {
		t.Fatalf("first batch executed %d runs, want 2", n)
	}

	second := NewHarness(o)
	got, err := second.RunConfigs(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cached results diverged from the runs that stored them")
	}
	if n := second.Executed(); n != 0 {
		t.Fatalf("restarted batch executed %d runs, want 0: every configuration had finished", n)
	}

	rerun := func(what string) {
		t.Helper()
		h := NewHarness(o)
		res, err := h.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if n := h.Executed(); n != 1 {
			t.Fatalf("%s: executed %d runs, want a fresh run", what, n)
		}
		if !reflect.DeepEqual(res, want[0]) {
			t.Fatalf("%s: fresh run diverged from the original", what)
		}
	}
	path := first.checkpointPath(base)
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	rerun("corrupt file")

	foreign, err := os.ReadFile(first.checkpointPath(other))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	rerun("file of another configuration")
}

// TestCheckpointDirKeyedByBuild: a results cache written by one build of
// the simulator is not served to another. The other build's fresh result
// overwrites the entry, which that build then serves, and the first build
// no longer finds its own.
func TestCheckpointDirKeyedByBuild(t *testing.T) {
	o := figure
	o.CheckpointDir = t.TempDir()
	run := func(build string, wantExecuted int64) {
		t.Helper()
		h := NewHarness(o)
		h.build = build
		if _, err := h.Run(h.baseConfig()); err != nil {
			t.Fatal(err)
		}
		if n := h.Executed(); n != wantExecuted {
			t.Fatalf("build %s executed %d runs, want %d", build, n, wantExecuted)
		}
	}
	run("a", 1)
	run("a", 0)
	run("b", 1)
	run("b", 0)
	run("a", 1)
}

// TestFlashCrowdConfigsDistinct: two configurations differing only in the
// flash-crowd fields (the tournament varies them) are different runs — they
// must share neither a memo slot nor a -ckpt-dir file.
func TestFlashCrowdConfigsDistinct(t *testing.T) {
	o := figure
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
