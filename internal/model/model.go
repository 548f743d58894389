// Package model implements the Version Data Model of Katz et al. that the
// paper's clustering and buffering algorithms exploit: typed, versioned
// design objects named name[i].type, connected by three first-class
// structural relationships — configuration (composition), version history,
// and correspondence — plus type-level and instance-to-instance inheritance.
//
// The model is deliberately storage-free: it records objects, their sizes,
// and the relationship graph. Physical placement lives in internal/storage,
// and placement policy in internal/core.
package model

import "fmt"

// ObjectID identifies an object in a Graph. The zero value (NilObject) is
// "no object".
type ObjectID uint32

// NilObject is the absent object.
const NilObject ObjectID = 0

// TypeID identifies a representation type in a Graph. The zero value
// (NilType) is "no type" and doubles as the root of the type lattice.
type TypeID uint16

// NilType is the absent type / lattice root marker.
const NilType TypeID = 0

// RelKind enumerates the structural relationships along which information is
// inherited and navigation occurs. Directions matter for traversal
// frequencies, so configuration appears twice.
type RelKind uint8

const (
	// ConfigDown navigates from a composite object to its components.
	ConfigDown RelKind = iota
	// ConfigUp navigates from a component to its composite object(s).
	ConfigUp
	// VersionAncestor navigates from a version to its immediate ancestor.
	VersionAncestor
	// VersionDescendant navigates from a version to its descendants.
	VersionDescendant
	// Correspondence navigates between representations of the same design
	// object (for example ALU[2].layout <-> ALU[3].netlist).
	Correspondence
	// InheritanceRef navigates from an instance to the instance it inherits
	// attributes from by reference (usually its version ancestor).
	InheritanceRef

	// NumRelKinds is the number of relationship kinds.
	NumRelKinds
)

var relKindNames = [NumRelKinds]string{
	"config-down", "config-up", "version-ancestor",
	"version-descendant", "correspondence", "inheritance-ref",
}

// String returns the relationship kind name.
func (k RelKind) String() string {
	if int(k) < len(relKindNames) {
		return relKindNames[k]
	}
	return fmt.Sprintf("RelKind(%d)", uint8(k))
}

// FreqProfile gives the relative traversal frequency of each relationship
// kind for instances of a type. The cluster manager inherits it into each
// new instance and uses it to pick the initial placement; the buffer manager
// uses it to weight page priorities.
type FreqProfile [NumRelKinds]float64

// Dominant returns the relationship kind with the highest frequency. Ties
// resolve to the lowest-numbered kind so results are deterministic.
func (f FreqProfile) Dominant() RelKind {
	best := RelKind(0)
	for k := RelKind(1); k < NumRelKinds; k++ {
		if f[k] > f[best] {
			best = k
		}
	}
	return best
}

// Total returns the sum of all frequencies.
func (f FreqProfile) Total() float64 {
	t := 0.0
	for _, v := range f {
		t += v
	}
	return t
}

// AttrImpl selects how an inherited attribute is implemented on an instance.
type AttrImpl uint8

const (
	// ByCopy materializes the inherited attribute on the instance, growing
	// the instance but avoiding traversals to the inheritance source.
	ByCopy AttrImpl = iota
	// ByReference leaves the attribute on the source; every access traverses
	// the inheritance-reference relationship.
	ByReference
)

// String names the implementation choice.
func (a AttrImpl) String() string {
	if a == ByCopy {
		return "by-copy"
	}
	return "by-reference"
}

// AttrDef describes an attribute defined on a type. Attributes defined on a
// supertype are visible on all subtypes through the lattice.
type AttrDef struct {
	Name string
	Size int // bytes when materialized by copy

	// AccessFreq is the relative run-time access frequency of the attribute,
	// used by the copy-vs-reference cost formulas.
	AccessFreq float64
}

// Type is a representation type in the type lattice ("layout", "netlist",
// "transistor", ...). Types carry the traversal-frequency profile and the
// attribute definitions their instances inherit.
type Type struct {
	ID    TypeID
	Name  string
	Super TypeID // NilType for lattice roots

	// Freq is the traversal-frequency profile instances inherit at creation.
	// Instances share it by reference, so it must not change after the type
	// is defined.
	Freq FreqProfile

	// BaseSize is the size in bytes of an instance before inherited
	// attributes are (optionally) copied in.
	BaseSize int

	// Attrs are the attributes defined directly on this type.
	Attrs []AttrDef

	// inherited is the flattened attribute list of the type chain, and
	// instSize a new instance's size with all of it copied in; DefineType
	// computes both once.
	inherited []AttrDef
	instSize  int32
}

// MaxInheritedAttrs is the widest flattened attribute list a type chain may
// carry: an object records its attribute implementations in one bit each.
const MaxInheritedAttrs = 16

// attrMask holds one bit per inherited attribute, set when the attribute is
// implemented by reference.
type attrMask uint16

// Object is a versioned design object, identified externally by the triple
// name[version].type (for example ALU[4].layout).
//
// Fields are ordered hot-first: identity, scalar links and the profile the
// clusterer reads on every placement, then the relationship lists, then the
// name. Objects are made by a Graph (NewObject, Derive, RestoreObject).
type Object struct {
	ID ObjectID

	// Ancestor is the version-history parent; NilObject for initial versions.
	Ancestor ObjectID

	// InheritsFrom is the instance this object inherits attributes from when
	// any attribute is implemented by reference (instance-to-instance
	// inheritance, normally the version ancestor). NilObject when all
	// attributes are by copy or the object has no inheritance source.
	InheritsFrom ObjectID

	Type TypeID

	// byRef records the implementation choice per inherited attribute,
	// indexed like the flattened attribute list of the object's type chain.
	byRef attrMask

	// freq is this instance's traversal-frequency profile. It points at the
	// type's profile until an attribute is implemented by reference; the
	// first such switch gives the instance its own copy.
	freq *FreqProfile

	// Size is the object's size in bytes, including any attributes
	// materialized by copy.
	Size    int32
	Version int32

	// Configuration relationships.
	Components []ObjectID // ConfigDown targets
	Composites []ObjectID // ConfigUp targets

	// Version-history relationships.
	Descendants []ObjectID

	// Correspondence relationships (symmetric).
	Correspondents []ObjectID

	Name string
}

// Freq returns this instance's traversal-frequency profile: its type's,
// adjusted for the attributes it implements by reference.
func (o *Object) Freq() FreqProfile { return *o.freq }

// FreqOf returns the instance's traversal frequency along one kind.
func (o *Object) FreqOf(k RelKind) float64 { return o.freq[k] }

// AttrImpl returns the implementation of inherited attribute i, indexed
// like Graph.InheritedAttrs of the object's type.
func (o *Object) AttrImpl(i int) AttrImpl { return AttrImpl(o.byRef >> uint(i) & 1) }

// Triple renders the paper's name[i].type notation; the type name must be
// resolved by the caller's Graph.
func (o *Object) triple(typeName string) string {
	return fmt.Sprintf("%s[%d].%s", o.Name, o.Version, typeName)
}

// Neighbors returns the object IDs reachable over one hop of the given
// relationship kind. The scalar-backed kinds (version ancestor, inheritance
// source) materialize a one-element slice; allocation-sensitive callers
// should iterate with NeighborCount/NeighborAt instead.
func (o *Object) Neighbors(kind RelKind) []ObjectID {
	switch kind {
	case ConfigDown:
		return o.Components
	case ConfigUp:
		return o.Composites
	case VersionAncestor:
		if o.Ancestor == NilObject {
			return nil
		}
		return []ObjectID{o.Ancestor}
	case VersionDescendant:
		return o.Descendants
	case Correspondence:
		return o.Correspondents
	case InheritanceRef:
		if o.InheritsFrom == NilObject {
			return nil
		}
		return []ObjectID{o.InheritsFrom}
	}
	return nil
}

// NeighborCount returns the number of one-hop neighbors along kind without
// materializing a slice.
func (o *Object) NeighborCount(kind RelKind) int {
	switch kind {
	case ConfigDown:
		return len(o.Components)
	case ConfigUp:
		return len(o.Composites)
	case VersionAncestor:
		if o.Ancestor == NilObject {
			return 0
		}
		return 1
	case VersionDescendant:
		return len(o.Descendants)
	case Correspondence:
		return len(o.Correspondents)
	case InheritanceRef:
		if o.InheritsFrom == NilObject {
			return 0
		}
		return 1
	}
	return 0
}

// NeighborAt returns the i-th one-hop neighbor along kind. It is the
// allocation-free counterpart of Neighbors for hot loops:
//
//	for i, n := 0, o.NeighborCount(k); i < n; i++ {
//		id := o.NeighborAt(k, i)
//		...
//	}
//
// i must be in [0, NeighborCount(kind)).
func (o *Object) NeighborAt(kind RelKind, i int) ObjectID {
	switch kind {
	case ConfigDown:
		return o.Components[i]
	case ConfigUp:
		return o.Composites[i]
	case VersionAncestor:
		return o.Ancestor
	case VersionDescendant:
		return o.Descendants[i]
	case Correspondence:
		return o.Correspondents[i]
	case InheritanceRef:
		return o.InheritsFrom
	}
	return NilObject
}
