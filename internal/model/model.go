// Package model implements the Version Data Model of Katz et al. that the
// paper's clustering and buffering algorithms exploit: typed, versioned
// design objects named name[i].type, connected by three first-class
// structural relationships — configuration (composition), version history,
// and correspondence — plus type-level and instance-to-instance inheritance.
//
// The model is deliberately storage-free: it records objects, their sizes,
// and the relationship graph. Physical placement lives in internal/storage,
// and placement policy in internal/core.
//
// No clustering or buffering decision reads an object's name, so names are
// optional: the library names every object it creates, while the generated
// OCT and OCB databases leave theirs unnamed and Graph.Triple renders such an
// object by ID (#17[1].layout).
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

// Object is a versioned design object. Its ID is its key; Graph.Triple
// renders it in the paper's name[version].type notation (for example
// ALU[4].layout), but that triple is not unique: Derive always numbers a new
// version ancestor.Version+1, so two branches from one version share a
// triple, and NewObject takes any name and version.
//
// Fields are ordered hot-first: identity, scalar links and the profile the
// clusterer reads on every placement, then the relationship lists. The name
// lives in the Graph, beside the object, so an unnamed object costs nothing
// for it. Objects are made by a Graph (NewObject, Derive, RestoreObject).
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

	// rels holds the four relationship lists back to back — components,
	// composites, descendants, correspondents — and ends[i] is where list i
	// stops; the last list runs to len(rels). One backing array per object
	// instead of four slice headers; at most MaxLinks IDs in all.
	ends [numLists - 1]uint16
	rels []ObjectID
}

// The relationship lists in the order Object.rels stores them.
const (
	listComponents = iota
	listComposites
	listDescendants
	listCorrespondents
	numLists
)

// MaxLinks is the most relationship-list entries (components, composites,
// descendants and correspondents together) one object may hold: the list
// bounds are 16-bit. Attach, Correspond and Derive return ErrTooManyLinks
// rather than exceed it.
const MaxLinks = 1<<16 - 1

// bounds returns where relationship list i starts and stops in rels.
func (o *Object) bounds(i int) (lo, hi int) {
	lo, hi = 0, len(o.rels)
	if i > 0 {
		lo = int(o.ends[i-1])
	}
	if i < numLists-1 {
		hi = int(o.ends[i])
	}
	return lo, hi
}

// list returns relationship list i, clipped to its own capacity so that an
// append by the caller copies instead of overwriting the next list. The
// slice is valid until the graph next changes this object's relationships.
func (o *Object) list(i int) []ObjectID {
	lo, hi := o.bounds(i)
	return o.rels[lo:hi:hi]
}

// insert appends id to the end of list i, keeping every list's order.
func (o *Object) insert(i int, id ObjectID) {
	_, at := o.bounds(i)
	o.rels = append(o.rels, 0)
	copy(o.rels[at+1:], o.rels[at:])
	o.rels[at] = id
	for j := i; j < numLists-1; j++ {
		o.ends[j]++
	}
}

// drop removes id from list i in place, keeping every list's order, and
// reports whether it was there.
func (o *Object) drop(i int, id ObjectID) bool {
	lo, hi := o.bounds(i)
	for at := lo; at < hi; at++ {
		if o.rels[at] == id {
			copy(o.rels[at:], o.rels[at+1:])
			o.rels = o.rels[:len(o.rels)-1]
			for j := i; j < numLists-1; j++ {
				o.ends[j]--
			}
			return true
		}
	}
	return false
}

// Components returns the objects this composite is configured from
// (ConfigDown targets).
func (o *Object) Components() []ObjectID { return o.list(listComponents) }

// Composites returns the composites this object is a component of
// (ConfigUp targets).
func (o *Object) Composites() []ObjectID { return o.list(listComposites) }

// Descendants returns the versions derived from this one.
func (o *Object) Descendants() []ObjectID { return o.list(listDescendants) }

// Correspondents returns the objects this one corresponds to (symmetric).
func (o *Object) Correspondents() []ObjectID { return o.list(listCorrespondents) }

// Freq returns this instance's traversal-frequency profile: its type's,
// adjusted for the attributes it implements by reference.
func (o *Object) Freq() FreqProfile { return *o.freq }

// FreqOf returns the instance's traversal frequency along one kind.
func (o *Object) FreqOf(k RelKind) float64 { return o.freq[k] }

// AttrImpl returns the implementation of inherited attribute i, indexed
// like Graph.InheritedAttrs of the object's type.
func (o *Object) AttrImpl(i int) AttrImpl { return AttrImpl(o.byRef >> uint(i) & 1) }

// kindLists maps the list-backed relationship kinds to their list in
// Object.rels; the scalar-backed kinds map to -1.
var kindLists = [NumRelKinds]int{
	ConfigDown:        listComponents,
	ConfigUp:          listComposites,
	VersionAncestor:   -1,
	VersionDescendant: listDescendants,
	Correspondence:    listCorrespondents,
	InheritanceRef:    -1,
}

// scalar returns the scalar link backing kind: the version ancestor or the
// inheritance source.
func (o *Object) scalar(kind RelKind) ObjectID {
	if kind == VersionAncestor {
		return o.Ancestor
	}
	return o.InheritsFrom
}

// Neighbors returns the object IDs reachable over one hop of the given
// relationship kind. The scalar-backed kinds (version ancestor, inheritance
// source) materialize a one-element slice; allocation-sensitive callers
// should iterate with NeighborCount/NeighborAt instead.
func (o *Object) Neighbors(kind RelKind) []ObjectID {
	if kind >= NumRelKinds {
		return nil
	}
	if l := kindLists[kind]; l >= 0 {
		return o.list(l)
	}
	if id := o.scalar(kind); id != NilObject {
		return []ObjectID{id}
	}
	return nil
}

// NeighborCount returns the number of one-hop neighbors along kind without
// materializing a slice.
func (o *Object) NeighborCount(kind RelKind) int {
	if kind >= NumRelKinds {
		return 0
	}
	if l := kindLists[kind]; l >= 0 {
		lo, hi := o.bounds(l)
		return hi - lo
	}
	if o.scalar(kind) != NilObject {
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
	if kind >= NumRelKinds {
		return NilObject
	}
	if l := kindLists[kind]; l >= 0 {
		return o.list(l)[i]
	}
	return o.scalar(kind)
}
