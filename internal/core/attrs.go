package core

import "oodb/internal/model"

// AttrCostModel parameterizes the cost formulas the clustering algorithm
// uses to choose between implementing an inherited attribute by copy or by
// reference (Section 2.1): a by-reference attribute costs one traversal of
// the inheritance-reference relationship per access (an I/O whenever the
// source page is not co-resident), while a by-copy attribute consumes page
// space, spreading objects over more pages.
type AttrCostModel struct {
	// RefMissPenalty is the expected cost of one by-reference attribute
	// access (probability the source is not co-located times the relative
	// I/O cost).
	RefMissPenalty float64
	// CopySpacePenalty is the cost per byte of page space a copied attribute
	// consumes, normalized by page size at evaluation time.
	CopySpacePenalty float64
	// PageSize normalizes the space term.
	PageSize int
}

// DefaultAttrCostModel matches the simulation defaults: a reference access
// is expensive relative to space until the attribute is large or rarely
// accessed.
var DefaultAttrCostModel = AttrCostModel{
	RefMissPenalty:   1.0,
	CopySpacePenalty: 4.0,
	PageSize:         4096,
}

// EvalAttr returns the estimated costs of the two implementations for one
// attribute.
func (m AttrCostModel) EvalAttr(a model.AttrDef) (refCost, copyCost float64) {
	ps := m.PageSize
	if ps <= 0 {
		ps = 4096
	}
	refCost = a.AccessFreq * m.RefMissPenalty
	copyCost = float64(a.Size) / float64(ps) * m.CopySpacePenalty
	return refCost, copyCost
}

// ChooseAttrImpls applies the cost formulas to every inherited attribute of
// o, switching to by-reference where cheaper. Switching adjusts the object's
// size and augments its inheritance-reference traversal frequency (via
// model.Graph.SetAttrImpl), which may in turn change the initial placement
// the clusterer picks — exactly the feedback loop the paper describes.
// It returns the number of attributes implemented by reference.
func ChooseAttrImpls(g *model.Graph, o *model.Object, m AttrCostModel) int {
	if o.Ancestor == model.NilObject && o.InheritsFrom == model.NilObject {
		return 0 // nothing to inherit from
	}
	attrs := g.InheritedAttrs(o.Type)
	switched := 0
	for i, a := range attrs {
		refCost, copyCost := m.EvalAttr(a)
		if refCost < copyCost && o.AttrImpl(i) != model.ByReference {
			if err := g.SetAttrImpl(o.ID, i, model.ByReference); err == nil {
				switched++
			}
		}
	}
	return switched
}
