package obs

import (
	"strings"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	var c Counters
	c.Count(PoolHit, 3)
	c.Count(PoolHit, 2)
	c.Count(LockConflict, 1)
	c.Cost(ClusterSplit, 1.5)
	c.Cost(ClusterSplit, 0.5)
	if got := c.CountOf(PoolHit); got != 5 {
		t.Fatalf("PoolHit count = %d, want 5", got)
	}
	if got := c.CountOf(LockConflict); got != 1 {
		t.Fatalf("LockConflict count = %d, want 1", got)
	}
	if got := c.CostOf(ClusterSplit); got != 2.0 {
		t.Fatalf("ClusterSplit cost = %g, want 2", got)
	}
	c.Reset()
	if c.CountOf(PoolHit) != 0 || c.CostOf(ClusterSplit) != 0 {
		t.Fatal("Reset did not zero the counters")
	}
}

func TestRenderListsNonZeroEventsSorted(t *testing.T) {
	var c Counters
	c.Count(PoolMiss, 7)
	c.Count(LogCoalesce, 2)
	c.Cost(ClusterSplit, 3.25)
	out := c.Render()
	for _, want := range []string{"pool.miss", "log.coalesce", "cluster.split", "cost=3.2500"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pool.hit") {
		t.Fatalf("Render lists a zero counter:\n%s", out)
	}
	if strings.Index(out, "cluster.split") > strings.Index(out, "pool.miss") {
		t.Fatalf("Render not sorted by event name:\n%s", out)
	}
}

func TestEventNamesComplete(t *testing.T) {
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == "" {
			t.Fatalf("event %d has no name", e)
		}
		if strings.HasPrefix(e.String(), "obs.Event(") {
			t.Fatalf("event %d falls through to the default name", e)
		}
	}
}

// The recording hot path must not allocate: hook sites fire on every pool
// access, so a per-event allocation would wreck the PR 2 zero-alloc
// guarantees the moment instrumentation is enabled.
func TestRecordingAllocFree(t *testing.T) {
	var c Counters
	var r Recorder = &c
	allocs := testing.AllocsPerRun(100, func() {
		r.Count(PoolHit, 1)
		r.Cost(ClusterSplit, 0.25)
	})
	if allocs != 0 {
		t.Fatalf("recording allocates %.1f per run, want 0", allocs)
	}
}
