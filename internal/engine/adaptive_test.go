package engine

import (
	"testing"

	"oodb/internal/core"
	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/workload"
)

func TestAdaptiveStateDefaults(t *testing.T) {
	a := newAdaptiveState(Config{Transactions: 100})
	if a.threshold != 10 || a.window != 200 {
		t.Fatalf("defaults: threshold=%v window=%d", a.threshold, a.window)
	}
	if a.phaseRatio(5) != 0 {
		t.Fatal("no phases configured but phaseRatio nonzero")
	}
}

func TestAdaptivePhaseRatio(t *testing.T) {
	a := newAdaptiveState(Config{Transactions: 100, PhasedRW: []float64{100, 2}})
	if a.phaseLen != 50 {
		t.Fatalf("phaseLen=%d", a.phaseLen)
	}
	if a.phaseRatio(0) != 100 || a.phaseRatio(49) != 100 {
		t.Fatal("first phase wrong")
	}
	if a.phaseRatio(50) != 2 || a.phaseRatio(99) != 2 {
		t.Fatal("second phase wrong")
	}
	// Past the schedule: clamp to the last phase.
	if a.phaseRatio(500) != 2 {
		t.Fatal("overflow clamp wrong")
	}
}

func TestAdaptiveObserve(t *testing.T) {
	a := newAdaptiveState(Config{Transactions: 100})
	a.window, a.threshold, a.history = 8, 3, make([]bool, 8)
	// Until a quarter of the window fills, no signal.
	if got := a.observe(false); got != -1 {
		t.Fatalf("early signal: %v", got)
	}
	// Feed 7 reads and 1 write: ratio 7.
	for i := 0; i < 6; i++ {
		a.observe(false)
	}
	got := a.observe(true)
	if got != 7 {
		t.Fatalf("observed ratio %v, want 7", got)
	}
	if pol := a.policyFor(got); pol != core.PolicyNoLimit {
		t.Fatalf("ratio 7 >= threshold 3 should pick No_limit: %v", pol)
	}
	// Slide the window toward writes.
	for i := 0; i < 8; i++ {
		got = a.observe(true)
	}
	if got != 0 {
		t.Fatalf("all-write window ratio %v", got)
	}
	if pol := a.policyFor(got); pol != core.PolicyIOLimit2 {
		t.Fatalf("low ratio should pick 2_IO_limit: %v", pol)
	}
}

func TestLockSetMapping(t *testing.T) {
	cases := []struct {
		name string
		req  workload.Op
		want []lock.Request
	}{
		{"read", workload.Op{Kind: workload.QComponentRetrieval, Target: 5},
			[]lock.Request{{Obj: 5, Mode: lock.Shared}}},
		{"update", workload.Op{Kind: workload.QUpdate, Target: 5},
			[]lock.Request{{Obj: 5, Mode: lock.Exclusive}}},
		{"insert", workload.Op{Kind: workload.QInsert, AttachTo: 9},
			[]lock.Request{{Obj: 9, Mode: lock.Exclusive}}},
		{"struct-update sorted", workload.Op{Kind: workload.QStructUpdate, Target: 9, AttachTo: 3},
			[]lock.Request{{Obj: 3, Mode: lock.Exclusive}, {Obj: 9, Mode: lock.Exclusive}}},
		{"scan", workload.Op{Kind: workload.QScan, Targets: []model.ObjectID{4, 2, 4}},
			[]lock.Request{{Obj: 2, Mode: lock.Shared}, {Obj: 4, Mode: lock.Shared}}},
		{"scan with repeated targets", workload.Op{Kind: workload.QOCBScan,
			Targets: []model.ObjectID{8, 3, 8, 0, 5, 3, 8, 1, 5, 3, 8, 8, 1, 0, 5}},
			[]lock.Request{{Obj: 1, Mode: lock.Shared}, {Obj: 3, Mode: lock.Shared}, {Obj: 5, Mode: lock.Shared}, {Obj: 8, Mode: lock.Shared}}},
		{"derive", workload.Op{Kind: workload.QDerive, Target: 7},
			[]lock.Request{{Obj: 7, Mode: lock.Exclusive}}},
		{"ocb-insert", workload.Op{Kind: workload.QOCBInsert, Target: 6, Targets: []model.ObjectID{6, 2, 6}},
			[]lock.Request{{Obj: 2, Mode: lock.Exclusive}, {Obj: 6, Mode: lock.Exclusive}}},
		{"ocb-update", workload.Op{Kind: workload.QOCBUpdate, Target: 5},
			[]lock.Request{{Obj: 5, Mode: lock.Exclusive}}},
		{"ocb-delete", workload.Op{Kind: workload.QOCBDelete, Target: 5},
			[]lock.Request{{Obj: 5, Mode: lock.Exclusive}}},
		{"ocb-rewire", workload.Op{Kind: workload.QOCBRewire, Target: 9, AttachTo: 3},
			[]lock.Request{{Obj: 3, Mode: lock.Exclusive}, {Obj: 9, Mode: lock.Exclusive}}},
	}
	// One scratch serves every case, the way a serial user reuses its own.
	var scratch []lock.Request
	for _, c := range cases {
		scratch = appendLockSet(scratch[:0], c.req)
		got := scratch
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v want %v", c.name, got, c.want)
				break
			}
		}
	}
	// Self re-link: the stronger mode wins on the merged entry.
	got := appendLockSet(nil, workload.Op{Kind: workload.QStructUpdate, Target: 4, AttachTo: 4})
	if len(got) != 1 || got[0].Mode != lock.Exclusive {
		t.Fatalf("merged lock set: %v", got)
	}
}

// TestAblationKnobs: both ablation switches run end to end and the sibling
// knob changes physical layout.
func TestAblationKnobs(t *testing.T) {
	cfg := octSmall.config(300)
	cfg.Replacement = core.ReplContext
	cfg.ContextBoostLimit = -1 // boosting disabled
	res := run(t, cfg)
	if res.Completed < cfg.Transactions {
		t.Fatal("boost-off run incomplete")
	}

	cfg2 := octSmall.config(300)
	cfg2.Density = workload.HighDensity
	cfg2.NoSiblingCandidates = true
	res2 := run(t, cfg2)
	if res2.Completed < cfg2.Transactions {
		t.Fatal("sibling-off run incomplete")
	}
}
