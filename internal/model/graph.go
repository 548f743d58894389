package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Graph holds the full object base: the type lattice and every object with
// its structural relationships. ObjectIDs and TypeIDs are dense indices into
// internal slices, so lookups are O(1) and the graph scales to millions of
// objects.
//
// Objects are stored by value in fixed-size chunks: object id lives in slot
// id%objChunk of chunk id/objChunk. A chunk never moves once allocated, so
// an *Object stays valid for the graph's life, and creating an object
// allocates only when it opens a new chunk. An empty slot — NilObject's, a
// deleted object's, or a gap RestoreObject skipped — holds the zero Object;
// a nil chunk holds only empty slots.
type Graph struct {
	types   []*Type // index 0 unused (NilType)
	chunks  []*[objChunk]Object
	next    ObjectID // the ID the next NewObject takes
	deleted int

	// names holds object names, indexed by ObjectID. It grows only when a
	// non-empty name is set, so a graph of unnamed objects never allocates
	// it; IDs past its end are unnamed.
	names []string

	// Structure-change listeners, notified when relationships are added to
	// existing objects. The cluster manager registers here to drive run-time
	// reclustering.
	onStructureChange []func(ObjectID)
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	// Chunk 0 starts nil, so Object(NilObject) finds an empty chunk.
	return &Graph{
		types:  make([]*Type, 1, 64),
		chunks: make([]*[objChunk]Object, 1),
		next:   1,
	}
}

// objChunk is the number of objects one chunk holds: 64 KiB of 64-byte
// objects, so the unused tail of the last chunk is small beside any
// database worth chunking.
const objChunk = 1024

// slot returns the storage for object id, allocating its chunk if it has
// none yet.
func (g *Graph) slot(id ObjectID) *Object {
	c := int(id / objChunk)
	if c >= len(g.chunks) {
		g.chunks = append(g.chunks, make([]*[objChunk]Object, c+1-len(g.chunks))...)
	}
	if g.chunks[c] == nil {
		g.chunks[c] = new([objChunk]Object)
	}
	return &g.chunks[c][id%objChunk]
}

// Errors returned by graph mutations.
var (
	ErrNoSuchType    = errors.New("model: no such type")
	ErrNoSuchObject  = errors.New("model: no such object")
	ErrSelfRelation  = errors.New("model: object cannot relate to itself")
	ErrDuplicateLink = errors.New("model: relationship already exists")
	// ErrTooManyLinks is returned when a new relationship would give an
	// object more than MaxLinks relationship-list entries.
	ErrTooManyLinks = errors.New("model: object holds the most relationships it can")
	// ErrNoInheritanceSource is returned when an attribute of an object
	// with neither a version ancestor nor an inheritance source is switched
	// to by-reference.
	ErrNoInheritanceSource = errors.New("model: object has no instance to inherit from")
	// ErrAttrImpls is returned when restored attribute implementations do
	// not match the type's inherited attributes.
	ErrAttrImpls = errors.New("model: attribute implementations do not match the type")
)

// DefineType adds a type to the lattice. super may be NilType. The
// flattened attribute list of the new type's chain may hold at most
// MaxInheritedAttrs attributes, and an instance's size must fit an int32.
func (g *Graph) DefineType(name string, super TypeID, baseSize int, freq FreqProfile, attrs []AttrDef) (TypeID, error) {
	if super != NilType && int(super) >= len(g.types) {
		return NilType, fmt.Errorf("%w: supertype %d", ErrNoSuchType, super)
	}
	inherited := append([]AttrDef(nil), attrs...)
	if super != NilType {
		inherited = append(inherited, g.types[super].inherited...)
	}
	if len(inherited) > MaxInheritedAttrs {
		return NilType, fmt.Errorf("model: type %q inherits %d attributes, more than %d",
			name, len(inherited), MaxInheritedAttrs)
	}
	size := baseSize
	for _, a := range inherited {
		size += a.Size
	}
	if !fitsInt32(size) {
		return NilType, fmt.Errorf("model: type %q instance size %d out of range", name, size)
	}
	id := TypeID(len(g.types))
	g.types = append(g.types, &Type{
		ID: id, Name: name, Super: super,
		Freq: freq, BaseSize: baseSize, Attrs: attrs,
		inherited: inherited[:len(inherited):len(inherited)],
		instSize:  int32(size),
	})
	return id, nil
}

func fitsInt32(n int) bool { return n >= math.MinInt32 && n <= math.MaxInt32 }

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
func (g *Graph) NumObjects() int { return int(g.next) - 1 - g.deleted }

// InheritedAttrs returns the full attribute list visible on instances of t:
// the type's own attributes plus everything up the supertype chain, nearest
// definitions first. The list is computed once, when t is defined; callers
// must not modify it.
func (g *Graph) InheritedAttrs(t TypeID) []AttrDef {
	if tp := g.Type(t); tp != nil {
		return tp.inherited
	}
	return nil
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
// type; an empty name leaves the object unnamed. The instance shares the
// type's traversal-frequency profile and starts at the type's base size plus
// every inherited attribute: inherited attributes default to by-copy (the
// cluster manager may revisit that choice via SetAttrImpl).
func (g *Graph) NewObject(name string, version int, t TypeID) (*Object, error) {
	tp := g.Type(t)
	if tp == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchType, t)
	}
	if !fitsInt32(version) {
		return nil, fmt.Errorf("model: version %d out of range", version)
	}
	o := g.slot(g.next)
	*o = Object{
		ID: g.next, Version: int32(version), Type: t,
		Size: tp.instSize, freq: &tp.Freq,
	}
	g.next++
	g.setName(o.ID, name)
	return o, nil
}

// RestoreObject recreates an object under a specific ID — the hook
// snapshot loading uses. IDs must be restored in increasing order; skipped
// IDs become deleted tombstones. The caller owns the object's size and
// relationships, which start zeroed; the object shares its type's profile
// with every attribute by copy until RestoreInheritance says otherwise.
func (g *Graph) RestoreObject(id ObjectID, name string, version int, t TypeID) (*Object, error) {
	if id == NilObject {
		return nil, ErrNoSuchObject
	}
	if id < g.next {
		return nil, fmt.Errorf("model: object %d already exists", id)
	}
	tp := g.Type(t)
	if tp == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchType, t)
	}
	if !fitsInt32(version) {
		return nil, fmt.Errorf("model: version %d out of range", version)
	}
	if id == ^ObjectID(0) {
		return nil, fmt.Errorf("model: object ID %d out of range", id)
	}
	g.deleted += int(id - g.next)
	o := g.slot(id)
	*o = Object{ID: id, Version: int32(version), Type: t, freq: &tp.Freq}
	g.next = id + 1
	g.setName(id, name)
	return o, nil
}

// RestoreInheritance sets a restored object's traversal-frequency profile
// and attribute implementations. impls must hold one ByCopy or ByReference
// per inherited attribute of the object's type, or ErrAttrImpls is
// returned. A profile bit-identical to the type's is shared with it.
func (g *Graph) RestoreInheritance(id ObjectID, freq FreqProfile, impls []AttrImpl) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	tp := g.types[o.Type]
	if len(impls) != len(tp.inherited) {
		return fmt.Errorf("%w: %d implementations for %d attributes", ErrAttrImpls, len(impls), len(tp.inherited))
	}
	var mask attrMask
	for i, im := range impls {
		switch im {
		case ByCopy:
		case ByReference:
			mask |= 1 << uint(i)
		default:
			return fmt.Errorf("%w: attribute %d implementation %d", ErrAttrImpls, i, im)
		}
	}
	o.byRef = mask
	o.freq = &tp.Freq
	for k, v := range freq {
		if math.Float64bits(v) != math.Float64bits(tp.Freq[k]) {
			own := freq
			o.freq = &own
			break
		}
	}
	return nil
}

// RestoreRelations sets a restored object's four relationship lists in one
// backing array. The lists are taken as given: CheckRelations verifies the
// graph they form once every object is restored. More than MaxLinks IDs in
// all returns ErrTooManyLinks.
func (g *Graph) RestoreRelations(id ObjectID, components, composites, descendants, correspondents []ObjectID) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	lists := [numLists][]ObjectID{components, composites, descendants, correspondents}
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	if n > MaxLinks {
		return fmt.Errorf("%w: object %d lists %d", ErrTooManyLinks, id, n)
	}
	o.rels = nil
	if n > 0 {
		o.rels = make([]ObjectID, 0, n)
	}
	for i, l := range lists {
		o.rels = append(o.rels, l...)
		if i < numLists-1 {
			o.ends[i] = uint16(len(o.rels))
		}
	}
	return nil
}

// Object returns the object with the given ID, or nil.
func (g *Graph) Object(id ObjectID) *Object {
	if id >= g.next {
		return nil
	}
	c := g.chunks[id/objChunk]
	if c == nil || c[id%objChunk].ID == NilObject {
		return nil
	}
	return &c[id%objChunk]
}

// setName records id's name; an empty name allocates nothing.
func (g *Graph) setName(id ObjectID, name string) {
	if int(id) >= len(g.names) {
		if name == "" {
			return
		}
		g.names = slices.Grow(g.names, int(id)+1-len(g.names))[:id+1]
	}
	g.names[id] = name
}

// Name returns the design-object name of id, or "" for an unnamed or
// missing object.
func (g *Graph) Name(id ObjectID) string {
	if int(id) < len(g.names) {
		return g.names[id]
	}
	return ""
}

// Triple renders the paper's name[i].type notation for an object, or
// #id[i].type for an unnamed one. It is a rendering, not a key: see Object.
func (g *Graph) Triple(id ObjectID) string {
	o := g.Object(id)
	if o == nil {
		return "<nil>"
	}
	tn := "?"
	if tp := g.Type(o.Type); tp != nil {
		tn = tp.Name
	}
	if name := g.Name(id); name != "" {
		return fmt.Sprintf("%s[%d].%s", name, o.Version, tn)
	}
	return fmt.Sprintf("#%d[%d].%s", id, o.Version, tn)
}

// Clone returns a copy of g that shares nothing it or g will write: every
// object, its relationship lists and its own traversal profile, and the
// names. Types never change once defined, so the copy shares them (and
// their profiles, which objects without their own point at). The lists go
// into one array, each clipped to its length, so the first insert on a list
// of the copy reallocates it instead of writing into its neighbor's.
// Structure-change listeners stay with g: they are bound to whatever
// registered them there.
func (g *Graph) Clone() *Graph {
	nrels, nown := 0, 0
	for _, ch := range g.chunks {
		if ch == nil {
			continue
		}
		for i := range ch {
			o := &ch[i]
			nrels += len(o.rels)
			if o.ownsFreq(g) {
				nown++
			}
		}
	}
	rels := make([]ObjectID, 0, nrels)
	own := make([]FreqProfile, 0, nown)
	c := &Graph{
		types:   g.types[:len(g.types):len(g.types)],
		chunks:  make([]*[objChunk]Object, len(g.chunks)),
		next:    g.next,
		deleted: g.deleted,
		names:   slices.Clone(g.names),
	}
	for k, ch := range g.chunks {
		if ch == nil {
			continue
		}
		cc := new([objChunk]Object)
		*cc = *ch
		for i := range cc {
			o := &cc[i]
			if o.rels != nil {
				n := len(rels)
				rels = append(rels, o.rels...)
				o.rels = rels[n:len(rels):len(rels)]
			}
			if o.ownsFreq(g) {
				own = append(own, *o.freq)
				o.freq = &own[len(own)-1]
			}
		}
		c.chunks[k] = cc
	}
	return c
}

// ownsFreq reports whether o has its own traversal profile rather than
// pointing at its type's.
func (o *Object) ownsFreq(g *Graph) bool {
	return o.freq != nil && o.freq != &g.types[o.Type].Freq
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

// roomFor returns ErrTooManyLinks, naming the object, if o cannot take one
// more relationship-list entry.
func roomFor(o *Object) error {
	if len(o.rels) >= MaxLinks {
		return fmt.Errorf("%w: object %d holds %d", ErrTooManyLinks, o.ID, len(o.rels))
	}
	return nil
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
	if contains(co.Components(), component) {
		return ErrDuplicateLink
	}
	if err := roomFor(co); err != nil {
		return err
	}
	if err := roomFor(cp); err != nil {
		return err
	}
	co.insert(listComponents, component)
	cp.insert(listComposites, composite)
	g.structureChanged(composite, component)
	return nil
}

// Detach removes a configuration relationship.
func (g *Graph) Detach(composite, component ObjectID) error {
	co, cp := g.Object(composite), g.Object(component)
	if co == nil || cp == nil {
		return ErrNoSuchObject
	}
	if !co.drop(listComponents, component) {
		return fmt.Errorf("model: %d is not a component of %d", component, composite)
	}
	cp.drop(listComposites, composite)
	g.structureChanged(composite, component)
	return nil
}

// Derive creates a new version of ancestor's design object: version number
// ancestor.Version+1, same name and type, linked into the version history.
// The number is not checked for uniqueness: deriving twice from one version
// makes two branches that share a triple, told apart only by their IDs. Per
// the paper's instance-to-instance inheritance, the descendant inherits the
// ancestor's correspondence relationships by default and becomes an
// inheritance-reference client of the ancestor. If the ancestor or any of
// its correspondents is at MaxLinks, Derive returns ErrTooManyLinks and
// creates nothing.
func (g *Graph) Derive(ancestor ObjectID) (*Object, error) {
	a := g.Object(ancestor)
	if a == nil {
		return nil, ErrNoSuchObject
	}
	if err := roomFor(a); err != nil {
		return nil, err
	}
	for _, c := range a.Correspondents() {
		if co := g.Object(c); co != nil {
			if err := roomFor(co); err != nil {
				return nil, err
			}
		}
	}
	o, err := g.NewObject(g.Name(ancestor), int(a.Version)+1, a.Type)
	if err != nil {
		return nil, err
	}
	o.Ancestor = ancestor
	a.insert(listDescendants, o.ID)
	o.InheritsFrom = ancestor
	// Instance-to-instance inheritance of correspondence relationships:
	// a new descendant of ALU[2].layout inherits ALU[2].layout's
	// correspondences by default.
	for _, c := range a.Correspondents() {
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
	if contains(oa.Correspondents(), b) {
		return ErrDuplicateLink
	}
	if err := roomFor(oa); err != nil {
		return err
	}
	if err := roomFor(ob); err != nil {
		return err
	}
	oa.insert(listCorrespondents, b)
	ob.insert(listCorrespondents, a)
	g.structureChanged(a, b)
	return nil
}

// SetAttrImpl switches inherited attribute idx of object id to the given
// implementation and adjusts the object's size and traversal-frequency
// profile: by-reference attributes shrink the object but add their access
// frequency to the inheritance-reference traversal frequency. The first
// adjustment gives the object its own copy of the type's profile. Only an
// object with a version ancestor or an inheritance source can implement an
// attribute by reference (ErrNoInheritanceSource otherwise).
func (g *Graph) SetAttrImpl(id ObjectID, idx int, impl AttrImpl) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	tp := g.types[o.Type]
	if idx < 0 || idx >= len(tp.inherited) {
		return fmt.Errorf("model: attribute index %d out of range", idx)
	}
	if impl != ByCopy && impl != ByReference {
		return fmt.Errorf("model: unknown attribute implementation %d", impl)
	}
	if o.AttrImpl(idx) == impl {
		return nil
	}
	if impl == ByReference && o.Ancestor == NilObject && o.InheritsFrom == NilObject {
		return ErrNoInheritanceSource
	}
	if o.freq == &tp.Freq {
		own := tp.Freq
		o.freq = &own
	}
	a := tp.inherited[idx]
	if impl == ByReference {
		o.Size -= int32(a.Size)
		o.freq[InheritanceRef] += a.AccessFreq
		if o.InheritsFrom == NilObject {
			o.InheritsFrom = o.Ancestor
		}
	} else {
		o.Size += int32(a.Size)
		o.freq[InheritanceRef] -= a.AccessFreq
		if o.freq[InheritanceRef] < 0 {
			o.freq[InheritanceRef] = 0
		}
	}
	o.byRef ^= 1 << uint(idx)
	return nil
}

// ErrInUse is returned when deleting an object that still anchors structure.
var ErrInUse = errors.New("model: object still has components or descendants")

// DeleteObject removes an object from the graph. Only objects that anchor
// no structure — no components and no descendant versions — may be deleted;
// composites must be dismantled bottom-up, and versioned ancestors are
// immutable history. All relationships pointing at the object are unlinked.
// The object ID is never reused, and its slot is emptied: a *Object still
// held for it reads as the zero Object from then on.
func (g *Graph) DeleteObject(id ObjectID) error {
	o := g.Object(id)
	if o == nil {
		return ErrNoSuchObject
	}
	if len(o.Components()) > 0 || len(o.Descendants()) > 0 {
		return ErrInUse
	}
	var touched []ObjectID
	for _, c := range o.Composites() {
		if co := g.Object(c); co != nil {
			co.drop(listComponents, id)
			touched = append(touched, c)
		}
	}
	for _, c := range o.Correspondents() {
		if co := g.Object(c); co != nil {
			co.drop(listCorrespondents, id)
			touched = append(touched, c)
		}
	}
	if o.Ancestor != NilObject {
		if a := g.Object(o.Ancestor); a != nil {
			a.drop(listDescendants, id)
			touched = append(touched, o.Ancestor)
		}
	}
	*o = Object{}
	g.setName(id, "")
	g.deleted++
	g.structureChanged(touched...)
	return nil
}

// CheckRelations verifies the relationship graph: every linked ID is a
// live object other than the linking one, no list holds an ID twice, no
// object holds more than MaxLinks list entries, and every link agrees with
// its inverse — a component lists its composite, a descendant names its
// ancestor (and every ancestor lists the descendant), and correspondence is
// symmetric. It runs in O(L log L) for L list entries.
func (g *Graph) CheckRelations() error {
	// Each link is one (from, to) key; a relationship and its inverse must
	// yield the same sorted key set.
	var down, up, desc, anc, corr, back []uint64
	key := func(from, to ObjectID) uint64 { return uint64(from)<<32 | uint64(to) }
	for id := ObjectID(1); id < g.next; id++ {
		o := g.Object(id)
		if o == nil {
			continue
		}
		if len(o.rels) > MaxLinks {
			return fmt.Errorf("model: object %d holds %d relationship entries, more than %d", o.ID, len(o.rels), MaxLinks)
		}
		for _, id := range [...]ObjectID{o.Ancestor, o.InheritsFrom} {
			if id != NilObject && (id == o.ID || g.Object(id) == nil) {
				return fmt.Errorf("model: object %d links to %d, which is itself or not live", o.ID, id)
			}
		}
		for _, id := range o.rels {
			if id == o.ID || g.Object(id) == nil {
				return fmt.Errorf("model: object %d lists %d, which is itself or not live", o.ID, id)
			}
		}
		for _, id := range o.Components() {
			down = append(down, key(o.ID, id))
		}
		for _, id := range o.Composites() {
			up = append(up, key(id, o.ID))
		}
		for _, id := range o.Descendants() {
			desc = append(desc, key(o.ID, id))
		}
		if o.Ancestor != NilObject {
			anc = append(anc, key(o.Ancestor, o.ID))
		}
		for _, id := range o.Correspondents() {
			corr = append(corr, key(o.ID, id))
			back = append(back, key(id, o.ID))
		}
	}
	for _, c := range [...]struct {
		name     string
		fwd, inv []uint64
	}{
		{"component", down, up},
		{"descendant", desc, anc},
		{"correspondent", corr, back},
	} {
		if err := sameLinks(c.name, c.fwd, c.inv); err != nil {
			return err
		}
	}
	return nil
}

// sameLinks sorts two link-key sets and reports the first duplicate in fwd
// or the first key present in only one of them.
func sameLinks(name string, fwd, inv []uint64) error {
	slices.Sort(fwd)
	slices.Sort(inv)
	for i := 1; i < len(fwd); i++ {
		if fwd[i] == fwd[i-1] {
			return fmt.Errorf("model: object %d lists %s %d twice", fwd[i]>>32, name, uint32(fwd[i]))
		}
	}
	for i := 0; i < len(fwd) || i < len(inv); i++ {
		if i >= len(inv) || (i < len(fwd) && fwd[i] < inv[i]) {
			return fmt.Errorf("model: object %d lists %s %d without the inverse link", fwd[i]>>32, name, uint32(fwd[i]))
		}
		if i >= len(fwd) || inv[i] < fwd[i] {
			return fmt.Errorf("model: object %d does not list %s %d, whose inverse link names it", inv[i]>>32, name, uint32(inv[i]))
		}
	}
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
	for id := ObjectID(1); id < g.next; id++ {
		if o := g.Object(id); o != nil {
			fn(o)
		}
	}
}
