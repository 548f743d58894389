package model

import (
	"errors"
	"fmt"
)

// Graph holds the full object base: the type lattice and every object with
// its structural relationships. ObjectIDs and TypeIDs are dense indices into
// internal slices, so lookups are O(1) and the graph scales to millions of
// objects.
type Graph struct {
	types   []*Type   // index 0 unused (NilType)
	objects []*Object // index 0 unused (NilObject); nil entries are deleted
	deleted int

	// Structure-change listeners, notified when relationships are added to
	// existing objects. The cluster manager registers here to drive run-time
	// reclustering.
	onStructureChange []func(ObjectID)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		types:   make([]*Type, 1, 64),
		objects: make([]*Object, 1, 1024),
	}
}

// Errors returned by graph mutations.
var (
	ErrNoSuchType    = errors.New("model: no such type")
	ErrNoSuchObject  = errors.New("model: no such object")
	ErrSelfRelation  = errors.New("model: object cannot relate to itself")
	ErrDuplicateLink = errors.New("model: relationship already exists")
)

// DefineType adds a type to the lattice. super may be NilType.
func (g *Graph) DefineType(name string, super TypeID, baseSize int, freq FreqProfile, attrs []AttrDef) (TypeID, error) {
	if super != NilType && int(super) >= len(g.types) {
		return NilType, fmt.Errorf("%w: supertype %d", ErrNoSuchType, super)
	}
	id := TypeID(len(g.types))
	g.types = append(g.types, &Type{
		ID: id, Name: name, Super: super,
		Freq: freq, BaseSize: baseSize, Attrs: attrs,
	})
	return id, nil
}

// Type returns the type with the given ID, or nil.
func (g *Graph) Type(id TypeID) *Type {
	if id == NilType || int(id) >= len(g.types) {
		return nil
	}
	return g.types[id]
}

// NumTypes returns the number of defined types.
func (g *Graph) NumTypes() int { return len(g.types) - 1 }

// NumObjects returns the number of live objects.
func (g *Graph) NumObjects() int { return len(g.objects) - 1 - g.deleted }

// InheritedAttrs returns the full attribute list visible on instances of t:
// the type's own attributes plus everything up the supertype chain, nearest
// definitions first.
func (g *Graph) InheritedAttrs(t TypeID) []AttrDef {
	var out []AttrDef
	for t != NilType {
		tp := g.Type(t)
		if tp == nil {
			break
		}
		out = append(out, tp.Attrs...)
		t = tp.Super
	}
	return out
}

// IsSubtype reports whether sub is t or a (transitive) subtype of t.
func (g *Graph) IsSubtype(sub, t TypeID) bool {
	for sub != NilType {
		if sub == t {
			return true
		}
		tp := g.Type(sub)
		if tp == nil {
			return false
		}
		sub = tp.Super
	}
	return false
}

// NewObject creates version `version` of design object `name` with the given
// type. The instance inherits the type's traversal-frequency profile and
// base size; inherited attributes default to by-copy (the cluster manager
// may revisit that choice via SetAttrImpl).
func (g *Graph) NewObject(name string, version int, t TypeID) (*Object, error) {
	tp := g.Type(t)
	if tp == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchType, t)
	}
	id := ObjectID(len(g.objects))
	attrs := g.InheritedAttrs(t)
	size := tp.BaseSize
	impls := make([]AttrImpl, len(attrs))
	for i, a := range attrs {
		impls[i] = ByCopy
		size += a.Size
	}
	o := &Object{
		ID: id, Name: name, Version: version, Type: t,
		Size: size, Freq: tp.Freq, AttrImpls: impls,
	}
	g.objects = append(g.objects, o)
	return o, nil
}

// RestoreObject recreates an object under a specific ID — the hook
// snapshot loading uses. IDs must be restored in increasing order; skipped
// IDs become deleted tombstones. The caller owns the object's fields
// (size, frequencies, relationships); they start zeroed except identity.
func (g *Graph) RestoreObject(id ObjectID, name string, version int, t TypeID) (*Object, error) {
	if id == NilObject {
		return nil, ErrNoSuchObject
	}
	if int(id) < len(g.objects) {
		return nil, fmt.Errorf("model: object %d already exists", id)
	}
	if g.Type(t) == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchType, t)
	}
	for ObjectID(len(g.objects)) < id {
		g.objects = append(g.objects, nil)
		g.deleted++
	}
	o := &Object{ID: id, Name: name, Version: version, Type: t}
	g.objects = append(g.objects, o)
	return o, nil
}

// Object returns the object with the given ID, or nil.
func (g *Graph) Object(id ObjectID) *Object {
	if id == NilObject || int(id) >= len(g.objects) {
		return nil
	}
	return g.objects[id]
}

// Triple renders name[i].type for an object.
func (g *Graph) Triple(id ObjectID) string {
	o := g.Object(id)
	if o == nil {
		return "<nil>"
	}
	tn := "?"
	if tp := g.Type(o.Type); tp != nil {
		tn = tp.Name
	}
	return o.triple(tn)
}

// OnStructureChange registers fn to be called with the IDs of objects whose
// structural relationships change after creation. This is the hook the
// run-time reclustering algorithm uses.
func (g *Graph) OnStructureChange(fn func(ObjectID)) {
	g.onStructureChange = append(g.onStructureChange, fn)
}

func (g *Graph) structureChanged(ids ...ObjectID) {
	for _, fn := range g.onStructureChange {
		for _, id := range ids {
			fn(id)
		}
	}
}

func contains(s []ObjectID, id ObjectID) bool {
	for _, x := range s {
		if x == id {
			return true
		}
	}
	return false
}

// Attach records that component is a part of composite (configuration
// relationship). Both directions are maintained, as with OCT attachments.
func (g *Graph) Attach(composite, component ObjectID) error {
	if composite == component {
		return ErrSelfRelation
	}
	co, cp := g.Object(composite), g.Object(component)
	if co == nil || cp == nil {
		return ErrNoSuchObject
	}
	if contains(co.Components, component) {
		return ErrDuplicateLink
	}
	co.Components = append(co.Components, component)
	cp.Composites = append(cp.Composites, composite)
	g.structureChanged(composite, component)
	return nil
}

// Detach removes a configuration relationship.
func (g *Graph) Detach(composite, component ObjectID) error {
	co, cp := g.Object(composite), g.Object(component)
	if co == nil || cp == nil {
		return ErrNoSuchObject
	}
	if !contains(co.Components, component) {
		return fmt.Errorf("model: %d is not a component of %d", component, composite)
	}
	co.Components = remove(co.Components, component)
	cp.Composites = remove(cp.Composites, composite)
	g.structureChanged(composite, component)
	return nil
}

func remove(s []ObjectID, id ObjectID) []ObjectID {
	for i, x := range s {
		if x == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Derive creates a new version of ancestor's design object: version number
// ancestor.Version+1 (or the next free one), same name and type, linked into
// the version history. Per the paper's instance-to-instance inheritance, the
// descendant inherits the ancestor's correspondence relationships by default
// and becomes an inheritance-reference client of the ancestor.
func (g *Graph) Derive(ancestor ObjectID) (*Object, error) {
	a := g.Object(ancestor)
	if a == nil {
		return nil, ErrNoSuchObject
	}
	o, err := g.NewObject(a.Name, a.Version+1, a.Type)
	if err != nil {
		return nil, err
	}
	o.Ancestor = ancestor
	a.Descendants = append(a.Descendants, o.ID)
	o.InheritsFrom = ancestor
	// Instance-to-instance inheritance of correspondence relationships:
	// a new descendant of ALU[2].layout inherits ALU[2].layout's
	// correspondences by default.
	for _, c := range a.Correspondents {
		if err := g.Correspond(o.ID, c); err != nil && !errors.Is(err, ErrDuplicateLink) {
			return nil, err
		}
	}
	g.structureChanged(ancestor, o.ID)
	return o, nil
}

// Correspond records a symmetric correspondence between two objects
// (typically different representation types of the same design object).
func (g *Graph) Correspond(a, b ObjectID) error {
	if a == b {
		return ErrSelfRelation
	}
	oa, ob := g.Object(a), g.Object(b)
	if oa == nil || ob == nil {
		return ErrNoSuchObject
	}
	if contains(oa.Correspondents, b) {
		return ErrDuplicateLink
	}
	oa.Correspondents = append(oa.Correspondents, b)
	ob.Correspondents = append(ob.Correspondents, a)
	g.structureChanged(a, b)
	return nil
}

// SetAttrImpl switches inherited attribute idx of object id to the given
// implementation and adjusts the object's size and traversal-frequency
// profile: by-reference attributes shrink the object but add their access
// frequency to the inheritance-reference traversal frequency.
func (g *Graph) SetAttrImpl(id ObjectID, idx int, impl AttrImpl) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	attrs := g.InheritedAttrs(o.Type)
	if idx < 0 || idx >= len(attrs) || idx >= len(o.AttrImpls) {
		return fmt.Errorf("model: attribute index %d out of range", idx)
	}
	if o.AttrImpls[idx] == impl {
		return nil
	}
	a := attrs[idx]
	if impl == ByReference {
		o.Size -= a.Size
		o.Freq[InheritanceRef] += a.AccessFreq
		if o.InheritsFrom == NilObject {
			o.InheritsFrom = o.Ancestor
		}
	} else {
		o.Size += a.Size
		o.Freq[InheritanceRef] -= a.AccessFreq
		if o.Freq[InheritanceRef] < 0 {
			o.Freq[InheritanceRef] = 0
		}
	}
	o.AttrImpls[idx] = impl
	return nil
}

// ErrInUse is returned when deleting an object that still anchors structure.
var ErrInUse = errors.New("model: object still has components or descendants")

// DeleteObject removes an object from the graph. Only objects that anchor
// no structure — no components and no descendant versions — may be deleted;
// composites must be dismantled bottom-up, and versioned ancestors are
// immutable history. All relationships pointing at the object are unlinked.
// The object ID is never reused.
func (g *Graph) DeleteObject(id ObjectID) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	if len(o.Components) > 0 || len(o.Descendants) > 0 {
		return ErrInUse
	}
	var touched []ObjectID
	for _, c := range o.Composites {
		if co := g.Object(c); co != nil {
			co.Components = remove(co.Components, id)
			touched = append(touched, c)
		}
	}
	for _, c := range o.Correspondents {
		if co := g.Object(c); co != nil {
			co.Correspondents = remove(co.Correspondents, id)
			touched = append(touched, c)
		}
	}
	if o.Ancestor != NilObject {
		if a := g.Object(o.Ancestor); a != nil {
			a.Descendants = remove(a.Descendants, id)
			touched = append(touched, o.Ancestor)
		}
	}
	g.objects[id] = nil
	g.deleted++
	g.structureChanged(touched...)
	return nil
}

// VersionChainAcyclic verifies that following Ancestor links from id
// terminates. It is used by tests and integrity checks.
func (g *Graph) VersionChainAcyclic(id ObjectID) bool {
	slow, fast := id, id
	for {
		fo := g.Object(fast)
		if fo == nil || fo.Ancestor == NilObject {
			return true
		}
		fast = fo.Ancestor
		fo = g.Object(fast)
		if fo == nil || fo.Ancestor == NilObject {
			return true
		}
		fast = fo.Ancestor
		slow = g.Object(slow).Ancestor
		if slow == fast {
			return false
		}
	}
}

// ForEachObject calls fn for every live object in ID order.
func (g *Graph) ForEachObject(fn func(*Object)) {
	for i := 1; i < len(g.objects); i++ {
		if g.objects[i] != nil {
			fn(g.objects[i])
		}
	}
}
