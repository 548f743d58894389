package engine

import "testing"

// TestSmokeRun drives a small configuration end to end and sanity-checks
// the results.
func TestSmokeRun(t *testing.T) {
	cfg := octTiny.config(500) // ~5 MB, 10 buffers
	e := octTiny.engine(t, cfg)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if res.MeanResponse <= 0 {
		t.Fatalf("mean response %v", res.MeanResponse)
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatalf("storage invariants: %v", err)
	}
	t.Logf("%v", res)
	t.Logf("db: objects=%d pages=%d", e.graph.NumObjects(), e.store.NumPages())
}
