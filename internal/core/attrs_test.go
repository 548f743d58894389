package core

import (
	"testing"

	"oodb/internal/model"
)

func TestEvalAttr(t *testing.T) {
	m := AttrCostModel{RefMissPenalty: 1, CopySpacePenalty: 4, PageSize: 4096}
	// Hot small attribute: reference expensive, copy cheap.
	ref, cp := m.EvalAttr(model.AttrDef{Size: 32, AccessFreq: 0.8})
	if ref <= cp {
		t.Fatalf("hot small attr should prefer copy: ref=%v copy=%v", ref, cp)
	}
	// Cold large attribute: copy expensive, reference cheap.
	ref, cp = m.EvalAttr(model.AttrDef{Size: 2048, AccessFreq: 0.05})
	if ref >= cp {
		t.Fatalf("cold large attr should prefer reference: ref=%v copy=%v", ref, cp)
	}
	// Zero page size falls back to 4096 rather than dividing by zero.
	m0 := AttrCostModel{RefMissPenalty: 1, CopySpacePenalty: 4}
	_, cp0 := m0.EvalAttr(model.AttrDef{Size: 4096, AccessFreq: 0.5})
	if cp0 != 4 {
		t.Fatalf("default page size not applied: %v", cp0)
	}
}

func TestChooseAttrImpls(t *testing.T) {
	g := model.NewGraph()
	ty, err := g.DefineType("t", model.NilType, 100, model.FreqProfile{}, []model.AttrDef{
		{Name: "hot", Size: 32, AccessFreq: 0.8},
		{Name: "cold", Size: 2048, AccessFreq: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.NewObject("A", 1, ty)
	// The initial version has no inheritance source: everything stays by
	// copy no matter the costs.
	if n := ChooseAttrImpls(g, a, DefaultAttrCostModel); n != 0 {
		t.Fatalf("initial version switched %d attrs", n)
	}
	d, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := d.Size
	n := ChooseAttrImpls(g, d, DefaultAttrCostModel)
	if n != 1 {
		t.Fatalf("switched %d attrs, want 1 (the cold large one)", n)
	}
	if d.AttrImpl(0) != model.ByCopy || d.AttrImpl(1) != model.ByReference {
		t.Fatalf("impls: %v %v", d.AttrImpl(0), d.AttrImpl(1))
	}
	if d.Size != sizeBefore-2048 {
		t.Fatalf("size %d -> %d", sizeBefore, d.Size)
	}
	if d.FreqOf(model.InheritanceRef) != 0.02 {
		t.Fatalf("inheritance frequency not augmented: %v", d.FreqOf(model.InheritanceRef))
	}
	// Idempotent on a second pass.
	if n := ChooseAttrImpls(g, d, DefaultAttrCostModel); n != 0 {
		t.Fatalf("second pass switched %d attrs", n)
	}
}
