package experiment

import "testing"

// TestOCBWorkloadMemoKeyDistinct: OCT and OCB runs at otherwise-identical
// options must not share a memo entry.
func TestOCBWorkloadMemoKeyDistinct(t *testing.T) {
	h := NewHarness(figure)
	oct, err := h.Run(h.baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	ocbRes, err := h.Run(h.ocbConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.Executed() != 2 {
		t.Fatalf("executed %d runs, want 2 (OCT and OCB must not share a memo key)", h.Executed())
	}
	if oct.LogicalDigest == ocbRes.LogicalDigest {
		t.Error("OCT and OCB runs produced the same logical digest")
	}
}
