package model

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func mustType(t *testing.T, g *Graph, name string, super TypeID, size int, freq FreqProfile, attrs []AttrDef) TypeID {
	t.Helper()
	id, err := g.DefineType(name, super, size, freq, attrs)
	if err != nil {
		t.Fatalf("DefineType(%s): %v", name, err)
	}
	return id
}

func mustObject(t *testing.T, g *Graph, name string, v int, ty TypeID) *Object {
	t.Helper()
	o, err := g.NewObject(name, v, ty)
	if err != nil {
		t.Fatalf("NewObject(%s): %v", name, err)
	}
	return o
}

func TestRelKindString(t *testing.T) {
	want := map[RelKind]string{
		ConfigDown: "config-down", ConfigUp: "config-up",
		VersionAncestor: "version-ancestor", VersionDescendant: "version-descendant",
		Correspondence: "correspondence", InheritanceRef: "inheritance-ref",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d: %q", k, k.String())
		}
	}
	if RelKind(200).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestFreqProfileDominant(t *testing.T) {
	var f FreqProfile
	if f.Dominant() != ConfigDown {
		t.Error("all-zero profile should tie-break to the first kind")
	}
	f[Correspondence] = 0.5
	f[ConfigUp] = 0.3
	if f.Dominant() != Correspondence {
		t.Errorf("dominant=%v", f.Dominant())
	}
	if f.Total() != 0.8 {
		t.Errorf("total=%v", f.Total())
	}
}

func TestDefineTypeAndLattice(t *testing.T) {
	g := NewGraph()
	base := mustType(t, g, "design", NilType, 10, FreqProfile{}, []AttrDef{{Name: "a", Size: 8, AccessFreq: 0.5}})
	leaf := mustType(t, g, "layout", base, 20, FreqProfile{}, []AttrDef{{Name: "b", Size: 4, AccessFreq: 0.1}})
	if g.NumTypes() != 2 {
		t.Fatalf("NumTypes=%d", g.NumTypes())
	}
	if g.Type(leaf).Super != base || g.Type(base).Super != NilType {
		t.Error("subtype relation broken")
	}
	attrs := g.InheritedAttrs(leaf)
	if len(attrs) != 2 || attrs[0].Name != "b" || attrs[1].Name != "a" {
		t.Fatalf("inherited attrs: %+v", attrs)
	}
	if _, err := g.DefineType("bad", TypeID(99), 1, FreqProfile{}, nil); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("bad supertype: %v", err)
	}
}

func TestNewObjectSizeIncludesAttrs(t *testing.T) {
	g := NewGraph()
	base := mustType(t, g, "design", NilType, 0, FreqProfile{}, []AttrDef{{Name: "a", Size: 100, AccessFreq: 0.5}})
	ty := mustType(t, g, "layout", base, 50, FreqProfile{}, []AttrDef{{Name: "b", Size: 30, AccessFreq: 0.5}})
	o := mustObject(t, g, "X", 1, ty)
	if o.Size != 180 {
		t.Fatalf("size=%d, want base+attrs=180", o.Size)
	}
	for i := range g.InheritedAttrs(ty) {
		if o.AttrImpl(i) != ByCopy {
			t.Fatal("attributes must default to by-copy")
		}
	}
	if _, err := g.NewObject("Y", 1, TypeID(42)); !errors.Is(err, ErrNoSuchType) {
		t.Errorf("unknown type: %v", err)
	}
}

func TestAttachDetach(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "A", 1, ty)
	b := mustObject(t, g, "B", 1, ty)
	if err := g.Attach(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Components()) != 1 || a.Components()[0] != b.ID {
		t.Fatal("component link missing")
	}
	if len(b.Composites()) != 1 || b.Composites()[0] != a.ID {
		t.Fatal("composite backlink missing")
	}
	if err := g.Attach(a.ID, b.ID); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate attach: %v", err)
	}
	if err := g.Attach(a.ID, a.ID); !errors.Is(err, ErrSelfRelation) {
		t.Errorf("self attach: %v", err)
	}
	if err := g.Detach(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Components()) != 0 || len(b.Composites()) != 0 {
		t.Fatal("detach left links behind")
	}
	if err := g.Detach(a.ID, b.ID); err == nil {
		t.Error("detaching a non-link should fail")
	}
}

func TestCorrespondSymmetric(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "A", 1, ty)
	b := mustObject(t, g, "B", 1, ty)
	if err := g.Correspond(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if len(a.Correspondents()) != 1 || len(b.Correspondents()) != 1 {
		t.Fatal("correspondence must be symmetric")
	}
	if err := g.Correspond(b.ID, a.ID); !errors.Is(err, ErrDuplicateLink) {
		t.Errorf("duplicate correspond: %v", err)
	}
}

func TestDeriveInheritsCorrespondences(t *testing.T) {
	g := NewGraph()
	lay := mustType(t, g, "layout", NilType, 10, FreqProfile{}, nil)
	net := mustType(t, g, "netlist", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "ALU", 2, lay)
	n := mustObject(t, g, "ALU", 3, net)
	if err := g.Correspond(a.ID, n.ID); err != nil {
		t.Fatal(err)
	}
	d, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d.Version != 3 || g.Name(d.ID) != "ALU" || d.Type != lay {
		t.Fatalf("derived identity wrong: %+v", d)
	}
	if d.Ancestor != a.ID {
		t.Fatal("ancestor link missing")
	}
	if len(a.Descendants()) != 1 || a.Descendants()[0] != d.ID {
		t.Fatal("descendant link missing")
	}
	if d.InheritsFrom != a.ID {
		t.Fatal("instance-to-instance inheritance source missing")
	}
	// The paper's example: the new descendant inherits the correspondence.
	if len(d.Correspondents()) != 1 || d.Correspondents()[0] != n.ID {
		t.Fatalf("correspondence not inherited: %v", d.Correspondents())
	}
	if g.Triple(d.ID) != "ALU[3].layout" {
		t.Fatalf("triple=%q", g.Triple(d.ID))
	}
}

func TestSetAttrImpl(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 100, FreqProfile{}, []AttrDef{
		{Name: "big", Size: 400, AccessFreq: 0.05},
	})
	a := mustObject(t, g, "A", 1, ty)
	d, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	size0 := d.Size
	if err := g.SetAttrImpl(d.ID, 0, ByReference); err != nil {
		t.Fatal(err)
	}
	if d.Size != size0-400 {
		t.Fatalf("by-reference should shrink object: %d -> %d", size0, d.Size)
	}
	if d.FreqOf(InheritanceRef) != 0.05 || d.AttrImpl(0) != ByReference {
		t.Fatalf("inheritance-ref freq not augmented: %v (%v)", d.FreqOf(InheritanceRef), d.AttrImpl(0))
	}
	// Switching back restores.
	if err := g.SetAttrImpl(d.ID, 0, ByCopy); err != nil {
		t.Fatal(err)
	}
	if d.Size != size0 || d.FreqOf(InheritanceRef) != 0 || d.AttrImpl(0) != ByCopy {
		t.Fatalf("restore failed: size=%d freq=%v", d.Size, d.FreqOf(InheritanceRef))
	}
	// Idempotent.
	if err := g.SetAttrImpl(d.ID, 0, ByCopy); err != nil {
		t.Fatal(err)
	}
	if d.Size != size0 {
		t.Fatal("idempotent switch changed size")
	}
	if err := g.SetAttrImpl(d.ID, 5, ByCopy); err == nil {
		t.Error("out-of-range attribute index must fail")
	}
	if err := g.SetAttrImpl(d.ID, 0, AttrImpl(7)); err == nil {
		t.Error("unknown implementation must fail")
	}
	// An object with neither a version ancestor nor an inheritance source
	// has nowhere to reference the attribute on: it must stay whole.
	sizeA := a.Size
	if err := g.SetAttrImpl(a.ID, 0, ByReference); !errors.Is(err, ErrNoInheritanceSource) {
		t.Fatalf("by-reference without a source: %v", err)
	}
	if a.Size != sizeA || a.AttrImpl(0) != ByCopy || a.InheritsFrom != NilObject || a.FreqOf(InheritanceRef) != 0 {
		t.Fatalf("refused switch changed the object: size=%d impl=%v from=%d", a.Size, a.AttrImpl(0), a.InheritsFrom)
	}
	if err := g.SetAttrImpl(a.ID, 0, ByCopy); err != nil {
		t.Errorf("by-copy needs no source: %v", err)
	}
}

// TestSetAttrImplCopyOnWrite: instances share their type's profile until an
// attribute goes by reference. The switch moves that instance's
// inheritance-reference frequency only, and switching back gives exactly
// the value the old per-instance copy held: += then -= then the clamp.
func TestSetAttrImplCopyOnWrite(t *testing.T) {
	g := NewGraph()
	var typeFreq FreqProfile
	typeFreq[ConfigDown] = 0.6
	typeFreq[InheritanceRef] = 0.1
	ty := mustType(t, g, "t", NilType, 100, typeFreq, []AttrDef{
		{Name: "hot", Size: 16, AccessFreq: 0.7},
		{Name: "cold", Size: 400, AccessFreq: 0.3},
	})
	a := mustObject(t, g, "A", 1, ty)
	d, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttrImpl(d.ID, 1, ByReference); err != nil {
		t.Fatal(err)
	}
	want := typeFreq
	want[InheritanceRef] += 0.3
	if d.Freq() != want {
		t.Fatalf("switched instance: %v, want %v", d.Freq(), want)
	}
	if g.Type(ty).Freq != typeFreq || a.Freq() != typeFreq || sib.Freq() != typeFreq {
		t.Fatalf("switch leaked: type %v, ancestor %v, sibling %v", g.Type(ty).Freq, a.Freq(), sib.Freq())
	}
	if err := g.SetAttrImpl(d.ID, 1, ByCopy); err != nil {
		t.Fatal(err)
	}
	want[InheritanceRef] -= 0.3
	if want[InheritanceRef] < 0 {
		want[InheritanceRef] = 0
	}
	got := d.FreqOf(InheritanceRef)
	if math.Float64bits(got) != math.Float64bits(want[InheritanceRef]) {
		t.Fatalf("switch back: %v (%#x), want %v (%#x)", got, math.Float64bits(got),
			want[InheritanceRef], math.Float64bits(want[InheritanceRef]))
	}
	if g.Type(ty).Freq != typeFreq || sib.Freq() != typeFreq {
		t.Fatal("switching back moved the type's or a sibling's profile")
	}
	// The clamp: an access frequency larger than what the profile holds
	// floors at zero on the way back, exactly as before.
	var zero FreqProfile
	ty2 := mustType(t, g, "u", NilType, 10, zero, []AttrDef{{Name: "x", Size: 8, AccessFreq: 0.2}})
	b := mustObject(t, g, "B", 1, ty2)
	b2, err := g.Derive(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []AttrImpl{ByReference, ByCopy} {
		if err := g.SetAttrImpl(b2.ID, 0, impl); err != nil {
			t.Fatal(err)
		}
	}
	if f := b2.FreqOf(InheritanceRef); f < 0 || g.Type(ty2).Freq != zero {
		t.Fatalf("clamp: %v, type %v", f, g.Type(ty2).Freq)
	}
}

// TestObjectSizeClass pins model.Object in the runtime's 64-byte malloc
// size class. One object per design object is the bulk of the live heap,
// so the next class up (80 B) costs every database 25 % more object memory.
// The struct holds 62 bytes of fields: a new one must replace one. A name
// lives in Graph's side table, not here.
func TestObjectSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Object{}); n > 64 {
		t.Fatalf("model.Object is %d bytes; it must stay within the 64-byte size class", n)
	}
}

func TestObjectAllocs(t *testing.T) {
	g := NewGraph()
	base := mustType(t, g, "design", NilType, 10, FreqProfile{}, []AttrDef{{Name: "a", Size: 8}})
	ty := mustType(t, g, "layout", base, 20, FreqProfile{}, []AttrDef{{Name: "b", Size: 4}})
	// Objects live by value in 1024-object chunks, so NewObject allocates
	// only when it opens a chunk: once per 1024 objects, which AllocsPerRun's
	// per-run average rounds to 0. An unnamed object never touches the name
	// table; a named one grows it by appending, also amortised to 0.
	for _, name := range []string{"", "o"} {
		if n := testing.AllocsPerRun(500, func() {
			if _, err := g.NewObject(name, 1, ty); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("NewObject(%q) allocates %v times, want 0 amortised", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = g.InheritedAttrs(ty) }); n != 0 {
		t.Errorf("InheritedAttrs allocates %v times, want 0", n)
	}
}

func TestDefineTypeRefusesWideChain(t *testing.T) {
	g := NewGraph()
	attrs := make([]AttrDef, MaxInheritedAttrs)
	base := mustType(t, g, "base", NilType, 10, FreqProfile{}, attrs[:MaxInheritedAttrs-1])
	full := mustType(t, g, "full", base, 10, FreqProfile{}, attrs[:1])
	if n := len(g.InheritedAttrs(full)); n != MaxInheritedAttrs {
		t.Fatalf("full chain has %d attributes", n)
	}
	if _, err := g.DefineType("wide", full, 10, FreqProfile{}, attrs[:1]); err == nil {
		t.Fatalf("a chain of %d attributes was accepted", MaxInheritedAttrs+1)
	}
	if g.NumTypes() != 2 {
		t.Fatalf("refused type was defined: %d types", g.NumTypes())
	}
}

func BenchmarkNewObject(b *testing.B) {
	g := NewGraph()
	base, _ := g.DefineType("design", NilType, 10, FreqProfile{}, []AttrDef{{Name: "a", Size: 8}})
	ty, _ := g.DefineType("layout", base, 20, FreqProfile{}, []AttrDef{{Name: "b", Size: 4}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.NewObject("o", 1, ty); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNeighbors(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "A", 1, ty)
	b := mustObject(t, g, "B", 1, ty)
	c := mustObject(t, g, "C", 1, ty)
	if err := g.Attach(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.Correspond(a.ID, c.ID); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Derive(a.ID)
	cases := map[RelKind][]ObjectID{
		ConfigDown:        {b.ID},
		ConfigUp:          nil,
		VersionAncestor:   nil,
		VersionDescendant: {d.ID},
		Correspondence:    {c.ID},
		InheritanceRef:    nil,
	}
	for kind, want := range cases {
		got := a.Neighbors(kind)
		if len(got) != len(want) {
			t.Errorf("%v: got %v want %v", kind, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: got %v want %v", kind, got, want)
			}
		}
	}
	if n := d.Neighbors(VersionAncestor); len(n) != 1 || n[0] != a.ID {
		t.Errorf("derived ancestor neighbors: %v", n)
	}
	if n := d.Neighbors(InheritanceRef); len(n) != 1 || n[0] != a.ID {
		t.Errorf("inheritance neighbors: %v", n)
	}
}

// Property: version numbers strictly increase along the version chains
// that arbitrary derive sequences produce, so the chains are acyclic.
func TestVersionChainsAcyclic(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		ty, _ := g.DefineType("t", NilType, 10, FreqProfile{}, nil)
		root, _ := g.NewObject("R", 1, ty)
		pool := []ObjectID{root.ID}
		for i := 0; i < int(steps%64); i++ {
			src := pool[rng.Intn(len(pool))]
			d, err := g.Derive(src)
			if err != nil {
				return false
			}
			pool = append(pool, d.ID)
		}
		for _, id := range pool {
			o := g.Object(id)
			if o.Ancestor != NilObject && g.Object(o.Ancestor).Version >= o.Version {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTripleAndLookupEdgeCases(t *testing.T) {
	g := NewGraph()
	if g.Object(NilObject) != nil || g.Object(999) != nil {
		t.Error("invalid object lookups must return nil")
	}
	if g.Type(NilType) != nil || g.Type(999) != nil {
		t.Error("invalid type lookups must return nil")
	}
	if g.Triple(12) != "<nil>" {
		t.Errorf("triple of missing object: %q", g.Triple(12))
	}
}

// TestNameLifecycle pins where names live: in the graph's side table,
// which an unnamed object never grows, inherited by Derive and cleared by
// DeleteObject.
func TestNameLifecycle(t *testing.T) {
	g := NewGraph()
	lay := mustType(t, g, "layout", NilType, 10, FreqProfile{}, nil)
	anon := mustObject(t, g, "", 1, lay)
	anonNext, err := g.Derive(anon.ID)
	if err != nil {
		t.Fatal(err)
	}
	if g.names != nil {
		t.Fatalf("unnamed objects allocated the name table: %q", g.names)
	}
	if g.Name(anon.ID) != "" || g.Name(anonNext.ID) != "" {
		t.Fatalf("unnamed objects have names %q, %q", g.Name(anon.ID), g.Name(anonNext.ID))
	}
	if got := g.Triple(anonNext.ID); got != "#2[2].layout" {
		t.Fatalf("unnamed triple %q", got)
	}

	alu := mustObject(t, g, "ALU", 4, lay)
	next, err := g.Derive(alu.ID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name(next.ID) != "ALU" || g.Triple(next.ID) != "ALU[5].layout" {
		t.Fatalf("derived version is %q (%q), want ALU[5].layout", g.Name(next.ID), g.Triple(next.ID))
	}
	if g.Name(anon.ID) != "" || g.Name(999) != "" || g.Name(NilObject) != "" {
		t.Fatal("an unnamed, missing or nil object has a name")
	}

	if err := g.DeleteObject(next.ID); err != nil {
		t.Fatal(err)
	}
	if g.Name(next.ID) != "" {
		t.Fatalf("deleted object keeps name %q", g.Name(next.ID))
	}
	if g.Name(alu.ID) != "ALU" {
		t.Fatalf("deleting a version renamed its ancestor: %q", g.Name(alu.ID))
	}

	// RestoreObject stores a name the same way, past any gap of IDs.
	if _, err := g.RestoreObject(9, "CPU", 1, lay); err != nil {
		t.Fatal(err)
	}
	if _, err := g.RestoreObject(10, "", 1, lay); err != nil {
		t.Fatal(err)
	}
	if g.Triple(9) != "CPU[1].layout" || g.Triple(10) != "#10[1].layout" {
		t.Fatalf("restored triples %q, %q", g.Triple(9), g.Triple(10))
	}
}

// TestDeriveBranchesShareTriple pins that a triple is a rendering, not a
// key: deriving twice from one version numbers both branches
// ancestor.Version+1, and NewObject takes a triple already in use.
func TestDeriveBranchesShareTriple(t *testing.T) {
	g := NewGraph()
	lay := mustType(t, g, "layout", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "ALU", 1, lay)
	b1, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.Derive(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID == b2.ID || b1.Version != 2 || b2.Version != 2 {
		t.Fatalf("branches %d v%d and %d v%d, want two IDs at version 2", b1.ID, b1.Version, b2.ID, b2.Version)
	}
	if g.Triple(b1.ID) != "ALU[2].layout" || g.Triple(b2.ID) != g.Triple(b1.ID) {
		t.Fatalf("branch triples %q, %q", g.Triple(b1.ID), g.Triple(b2.ID))
	}
	if d := a.Descendants(); len(d) != 2 || d[0] != b1.ID || d[1] != b2.ID {
		t.Fatalf("ancestor lists %v", d)
	}
	dup := mustObject(t, g, "ALU", 1, lay)
	if dup.ID == a.ID || g.Triple(dup.ID) != g.Triple(a.ID) {
		t.Fatalf("repeated NewObject: ID %d, triple %q", dup.ID, g.Triple(dup.ID))
	}
}

func TestForEachObjectOrder(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	for i := 0; i < 5; i++ {
		mustObject(t, g, "X", i, ty)
	}
	var ids []ObjectID
	g.ForEachObject(func(o *Object) { ids = append(ids, o.ID) })
	if len(ids) != 5 {
		t.Fatalf("visited %d", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("ForEachObject must visit in ID order")
		}
	}
}

func TestDeleteObject(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	root := mustObject(t, g, "R", 1, ty)
	leaf := mustObject(t, g, "L", 1, ty)
	other := mustObject(t, g, "O", 1, ty)
	if err := g.Attach(root.ID, leaf.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.Correspond(leaf.ID, other.ID); err != nil {
		t.Fatal(err)
	}
	// A composite cannot be deleted.
	if err := g.DeleteObject(root.ID); !errors.Is(err, ErrInUse) {
		t.Fatalf("composite delete: %v", err)
	}
	// A versioned ancestor cannot be deleted.
	d, _ := g.Derive(other.ID)
	if err := g.DeleteObject(other.ID); !errors.Is(err, ErrInUse) {
		t.Fatalf("ancestor delete: %v", err)
	}
	// The leaf can: every inbound link is unlinked.
	n := g.NumObjects()
	if err := g.DeleteObject(leaf.ID); err != nil {
		t.Fatal(err)
	}
	if g.NumObjects() != n-1 {
		t.Fatalf("NumObjects=%d", g.NumObjects())
	}
	if g.Object(leaf.ID) != nil {
		t.Fatal("deleted object still visible")
	}
	if len(root.Components()) != 0 {
		t.Fatal("composite still references deleted component")
	}
	// The leaf corresponded to `other` and (via derive-inheritance) to `d`;
	// deleting it unlinks both sides.
	if len(other.Correspondents()) != 0 || len(d.Correspondents()) != 0 {
		t.Fatalf("correspondence not unlinked: %v / %v",
			other.Correspondents(), d.Correspondents())
	}
	// Deleting a derived version unlinks the ancestor's descendant list.
	if err := g.DeleteObject(d.ID); err != nil {
		t.Fatal(err)
	}
	if len(other.Descendants()) != 0 {
		t.Fatal("ancestor still lists deleted descendant")
	}
	// Now the ancestor is deletable.
	if err := g.DeleteObject(other.ID); err != nil {
		t.Fatal(err)
	}
	if err := g.DeleteObject(other.ID); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("double delete: %v", err)
	}
	// Iteration skips tombstones.
	count := 0
	g.ForEachObject(func(*Object) { count++ })
	if count != g.NumObjects() {
		t.Fatalf("iteration saw %d, NumObjects %d", count, g.NumObjects())
	}
}

// TestDeleteObjectAllocs: deleting an object unlinks it from its
// composite and its correspondents in place, allocating nothing.
func TestDeleteObjectAllocs(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	root := mustObject(t, g, "R", 1, ty)
	other := mustObject(t, g, "O", 1, ty)
	const runs = 100
	leaves := make([]ObjectID, runs+1) // AllocsPerRun adds one warm-up call
	for i := range leaves {
		l := mustObject(t, g, "L", i, ty)
		if err := g.Attach(root.ID, l.ID); err != nil {
			t.Fatal(err)
		}
		if err := g.Correspond(l.ID, other.ID); err != nil {
			t.Fatal(err)
		}
		leaves[i] = l.ID
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := g.DeleteObject(leaves[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Errorf("DeleteObject allocates %v times, want 0", n)
	}
	if len(root.Components()) != 0 || len(other.Correspondents()) != 0 {
		t.Fatalf("links left after deleting every leaf: %v / %v", root.Components(), other.Correspondents())
	}
	if err := g.CheckRelations(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreObject(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	if _, err := g.RestoreObject(3, "A", 1, ty); err != nil {
		t.Fatal(err)
	}
	if g.Object(1) != nil || g.Object(2) != nil {
		t.Fatal("gap IDs should be tombstones")
	}
	if g.Object(3) == nil || g.NumObjects() != 1 {
		t.Fatalf("restored object missing: n=%d", g.NumObjects())
	}
	if _, err := g.RestoreObject(3, "B", 1, ty); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if _, err := g.RestoreObject(NilObject, "B", 1, ty); err == nil {
		t.Fatal("nil ID accepted")
	}
	if _, err := g.RestoreObject(9, "B", 1, TypeID(55)); err == nil {
		t.Fatal("unknown type accepted")
	}
	// The last ID would leave no ID for the next object.
	if _, err := g.RestoreObject(^ObjectID(0), "B", 1, ty); err == nil {
		t.Fatal("the largest ObjectID accepted")
	}
	// Normal creation continues after the restored range.
	o := mustObject(t, g, "C", 1, ty)
	if o.Freq() != g.Type(ty).Freq {
		t.Fatal("object does not share its type's profile")
	}
	if o.ID != 4 {
		t.Fatalf("next ID %d", o.ID)
	}
}

func TestRestoreInheritance(t *testing.T) {
	g := NewGraph()
	var tf FreqProfile
	tf[ConfigUp] = 0.5
	ty := mustType(t, g, "t", NilType, 10, tf, []AttrDef{{Name: "a", Size: 8}, {Name: "b", Size: 4}})
	o, err := g.RestoreObject(1, "A", 2, ty)
	if err != nil {
		t.Fatal(err)
	}
	if o.Freq() != tf || o.AttrImpl(0) != ByCopy || o.AttrImpl(1) != ByCopy {
		t.Fatalf("restored object before RestoreInheritance: %v %v %v", o.Freq(), o.AttrImpl(0), o.AttrImpl(1))
	}
	own := tf
	own[InheritanceRef] = 0.25
	if err := g.RestoreInheritance(1, own, []AttrImpl{ByCopy, ByReference}); err != nil {
		t.Fatal(err)
	}
	if o.Freq() != own || o.AttrImpl(0) != ByCopy || o.AttrImpl(1) != ByReference {
		t.Fatalf("restored: %v %v %v", o.Freq(), o.AttrImpl(0), o.AttrImpl(1))
	}
	if g.Type(ty).Freq != tf {
		t.Fatal("a restored profile overwrote the type's")
	}
	for _, bad := range [][]AttrImpl{nil, {ByCopy}, {ByCopy, ByCopy, ByCopy}, {ByCopy, AttrImpl(2)}} {
		if err := g.RestoreInheritance(1, tf, bad); !errors.Is(err, ErrAttrImpls) {
			t.Errorf("impls %v: %v, want ErrAttrImpls", bad, err)
		}
	}
	if err := g.RestoreInheritance(7, tf, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("missing object: %v", err)
	}
}
