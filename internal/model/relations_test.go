package model

import (
	"errors"
	"slices"
	"testing"
)

// lists returns an object's four relationship lists in storage order.
func lists(o *Object) [numLists][]ObjectID {
	return [numLists][]ObjectID{o.Components(), o.Composites(), o.Descendants(), o.Correspondents()}
}

// TestListAppendDoesNotAlias checks that the lists an object returns are
// clipped to their own capacity: appending to one copies instead of
// overwriting the list stored after it.
func TestListAppendDoesNotAlias(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	a := mustObject(t, g, "A", 1, ty)
	b := mustObject(t, g, "B", 1, ty)
	c := mustObject(t, g, "C", 1, ty)
	d := mustObject(t, g, "D", 1, ty)
	for _, link := range [][2]ObjectID{{a.ID, b.ID}, {c.ID, a.ID}, {d.ID, a.ID}} {
		if err := g.Attach(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Correspond(a.ID, d.ID); err != nil {
		t.Fatal(err)
	}
	before := lists(a)
	for i := range before {
		before[i] = slices.Clone(before[i])
	}
	grown := append(a.Components(), 99)
	grown[0] = 98
	_ = append(a.Composites(), 97)
	_ = append(a.Descendants(), 96)
	if got := lists(a); !slices.Equal(got[listComponents], before[listComponents]) ||
		!slices.Equal(got[listComposites], before[listComposites]) ||
		!slices.Equal(got[listCorrespondents], before[listCorrespondents]) {
		t.Fatalf("appending to returned lists changed the object: %v, was %v", got, before)
	}
	if err := g.CheckRelations(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxLinks drives an object to MaxLinks list entries through Derive and
// Correspond and checks that every mutator then refuses with
// ErrTooManyLinks, changing neither end of the link, and that freeing one
// entry makes room again.
func TestMaxLinks(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	hub := mustObject(t, g, "H", 1, ty)
	peer := mustObject(t, g, "P", 1, ty)
	free := mustObject(t, g, "F", 1, ty)
	for len(hub.rels) < MaxLinks-1 {
		if _, err := g.Derive(hub.ID); err != nil {
			t.Fatalf("derive %d: %v", len(hub.rels), err)
		}
	}
	if err := g.Correspond(peer.ID, hub.ID); err != nil {
		t.Fatalf("correspond up to the bound: %v", err)
	}
	n := g.NumObjects()
	unchanged := func(step string) {
		t.Helper()
		if len(hub.rels) != MaxLinks {
			t.Fatalf("%s: hub holds %d entries", step, len(hub.rels))
		}
		if len(free.rels) != 0 {
			t.Fatalf("%s: free object gained links %v", step, lists(free))
		}
		if len(peer.rels) != 1 || peer.Correspondents()[0] != hub.ID {
			t.Fatalf("%s: peer lists %v", step, lists(peer))
		}
		if g.NumObjects() != n {
			t.Fatalf("%s: object count %d, want %d", step, g.NumObjects(), n)
		}
	}
	refusals := []struct {
		step string
		do   func() error
	}{
		{"attach component to full composite", func() error { return g.Attach(hub.ID, free.ID) }},
		{"attach full component", func() error { return g.Attach(free.ID, hub.ID) }},
		{"correspond from full", func() error { return g.Correspond(hub.ID, free.ID) }},
		{"correspond to full", func() error { return g.Correspond(free.ID, hub.ID) }},
		{"derive full ancestor", func() error { _, err := g.Derive(hub.ID); return err }},
		{"derive with full correspondent", func() error { _, err := g.Derive(peer.ID); return err }},
	}
	for _, r := range refusals {
		if err := r.do(); !errors.Is(err, ErrTooManyLinks) {
			t.Errorf("%s: %v, want ErrTooManyLinks", r.step, err)
		}
		unchanged(r.step)
	}
	if err := g.CheckRelations(); err != nil {
		t.Fatal(err)
	}
	// Deleting one descendant frees exactly one entry.
	if err := g.DeleteObject(hub.Descendants()[0]); err != nil {
		t.Fatal(err)
	}
	if err := g.Attach(hub.ID, free.ID); err != nil {
		t.Fatalf("attach after delete: %v", err)
	}
	if err := g.Attach(hub.ID, peer.ID); !errors.Is(err, ErrTooManyLinks) {
		t.Fatalf("attach past the bound again: %v", err)
	}
	if c := hub.Components(); len(c) != 1 || c[0] != free.ID || len(hub.rels) != MaxLinks {
		t.Fatalf("hub components %v with %d entries", c, len(hub.rels))
	}
	if err := g.CheckRelations(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreRelations(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
	for i := 0; i < 5; i++ {
		mustObject(t, g, "o", 1, ty)
	}
	want := [numLists][]ObjectID{{2, 3}, {4}, nil, {5}}
	if n := testing.AllocsPerRun(10, func() {
		if err := g.RestoreRelations(1, want[0], want[1], want[2], want[3]); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("RestoreRelations allocates %v times, want 1 (the backing array)", n)
	}
	for i, l := range lists(g.Object(1)) {
		if !slices.Equal(l, want[i]) {
			t.Fatalf("list %d = %v, want %v", i, l, want[i])
		}
	}
	if err := g.RestoreRelations(1, nil, nil, nil, nil); err != nil || g.Object(1).rels != nil {
		t.Fatalf("clearing: %v, rels %v", err, g.Object(1).rels)
	}
	if err := g.RestoreRelations(1, make([]ObjectID, MaxLinks), make([]ObjectID, 1), nil, nil); !errors.Is(err, ErrTooManyLinks) {
		t.Errorf("%d entries: %v, want ErrTooManyLinks", MaxLinks+1, err)
	}
	if err := g.RestoreRelations(9, nil, nil, nil, nil); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("missing object: %v", err)
	}
}

// TestCheckRelations breaks a consistent three-object graph one way at a
// time; CheckRelations must refuse each.
func TestCheckRelations(t *testing.T) {
	type rels struct {
		lists    [numLists][]ObjectID
		ancestor ObjectID
		inherits ObjectID
	}
	// Object 1 is composed of 2, 3 is derived from 1, and 1 corresponds to 2.
	good := [3]rels{
		{lists: [numLists][]ObjectID{{2}, nil, {3}, {2}}},
		{lists: [numLists][]ObjectID{nil, {1}, nil, {1}}},
		{ancestor: 1, inherits: 1},
	}
	cases := []struct {
		name   string
		mutate func(r *[3]rels)
	}{
		{"consistent", func(*[3]rels) {}},
		{"dangling component", func(r *[3]rels) { r[0].lists[listComponents] = []ObjectID{2, 999} }},
		{"one-sided correspondence", func(r *[3]rels) {
			r[0].lists[listCorrespondents] = []ObjectID{2, 3}
		}},
		{"self link", func(r *[3]rels) { r[1].lists[listCorrespondents] = []ObjectID{1, 2} }},
		{"duplicate component", func(r *[3]rels) { r[0].lists[listComponents] = []ObjectID{2, 2} }},
		{"component without composite", func(r *[3]rels) { r[1].lists[listComposites] = nil }},
		{"composite without component", func(r *[3]rels) { r[2].lists[listComposites] = []ObjectID{1} }},
		{"descendant without ancestor", func(r *[3]rels) { r[2].ancestor = NilObject }},
		{"ancestor without descendant", func(r *[3]rels) { r[0].lists[listDescendants] = nil }},
		{"dead ancestor", func(r *[3]rels) { r[2].ancestor = 7 }},
		{"dead inheritance source", func(r *[3]rels) { r[2].inherits = 7 }},
	}
	for _, c := range cases {
		g := NewGraph()
		ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
		r := good
		c.mutate(&r)
		for i := range r {
			o := mustObject(t, g, "o", 1, ty)
			o.Ancestor, o.InheritsFrom = r[i].ancestor, r[i].inherits
			l := r[i].lists
			if err := g.RestoreRelations(o.ID, l[0], l[1], l[2], l[3]); err != nil {
				t.Fatal(err)
			}
		}
		err := g.CheckRelations()
		if c.name == "consistent" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		} else if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// refObject is FuzzRelations' reference model of one object: the four
// lists as plain slices.
type refObject struct {
	live     bool
	ancestor ObjectID
	lists    [numLists][]ObjectID
}

func (r *refObject) has(l int, id ObjectID) bool { return slices.Contains(r.lists[l], id) }

func (r *refObject) drop(l int, id ObjectID) {
	if i := slices.Index(r.lists[l], id); i >= 0 {
		r.lists[l] = slices.Delete(r.lists[l], i, i+1)
	}
}

// FuzzRelations runs random Attach/Detach/Derive/Correspond/DeleteObject
// sequences against a reference model that keeps four plain slices per
// object. After every step each live object's lists must equal the
// reference in order, refusals must match, and CheckRelations must pass.
func FuzzRelations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 3, 2, 1, 0, 4, 2, 0, 1, 1, 2})
	f.Add([]byte{3, 1, 2, 2, 1, 0, 2, 7, 0, 0, 1, 7, 4, 1, 0, 4, 7, 0, 1, 1, 7})
	f.Add([]byte{0, 1, 2, 0, 2, 3, 0, 1, 3, 1, 1, 2, 4, 2, 0, 0, 3, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const initial = 4
		// Past ~100 steps, Derive's inherited correspondences grow the links
		// quadratically and each run slows without reaching new states.
		if len(ops) > 3*100 {
			ops = ops[:3*100]
		}
		g := NewGraph()
		ty := mustType(t, g, "t", NilType, 10, FreqProfile{}, nil)
		ref := []refObject{{}} // index 0 is NilObject
		for i := 0; i < initial; i++ {
			mustObject(t, g, "o", 1, ty)
			ref = append(ref, refObject{live: true})
		}
		// pick maps a byte to any ID from NilObject to one past the last.
		pick := func(b byte) ObjectID { return ObjectID(int(b) % (len(ref) + 1)) }
		get := func(id ObjectID) *refObject {
			if int(id) < len(ref) && ref[id].live {
				return &ref[id]
			}
			return nil
		}
		for step := 0; step+3 <= len(ops); step += 3 {
			op, a, b := ops[step]%5, pick(ops[step+1]), pick(ops[step+2])
			ra, rb := get(a), get(b)
			var err, want error
			switch op {
			case 0: // Attach(a, b)
				err = g.Attach(a, b)
				switch {
				case a == b:
					want = ErrSelfRelation
				case ra == nil || rb == nil:
					want = ErrNoSuchObject
				case ra.has(listComponents, b):
					want = ErrDuplicateLink
				default:
					ra.lists[listComponents] = append(ra.lists[listComponents], b)
					rb.lists[listComposites] = append(rb.lists[listComposites], a)
				}
			case 1: // Detach(a, b)
				err = g.Detach(a, b)
				switch {
				case ra == nil || rb == nil:
					want = ErrNoSuchObject
				case !ra.has(listComponents, b):
					want = errNotLinked
				default:
					ra.drop(listComponents, b)
					rb.drop(listComposites, a)
				}
			case 2: // Derive(a)
				var o *Object
				o, err = g.Derive(a)
				if ra == nil {
					want = ErrNoSuchObject
					break
				}
				id := ObjectID(len(ref))
				if err == nil && o.ID != id {
					t.Fatalf("step %d: derived ID %d, want %d", step/3, o.ID, id)
				}
				d := refObject{live: true, ancestor: a}
				ra.lists[listDescendants] = append(ra.lists[listDescendants], id)
				for _, c := range ra.lists[listCorrespondents] {
					d.lists[listCorrespondents] = append(d.lists[listCorrespondents], c)
					ref[c].lists[listCorrespondents] = append(ref[c].lists[listCorrespondents], id)
				}
				ref = append(ref, d)
			case 3: // Correspond(a, b)
				err = g.Correspond(a, b)
				switch {
				case a == b:
					want = ErrSelfRelation
				case ra == nil || rb == nil:
					want = ErrNoSuchObject
				case ra.has(listCorrespondents, b):
					want = ErrDuplicateLink
				default:
					ra.lists[listCorrespondents] = append(ra.lists[listCorrespondents], b)
					rb.lists[listCorrespondents] = append(rb.lists[listCorrespondents], a)
				}
			case 4: // DeleteObject(a)
				err = g.DeleteObject(a)
				switch {
				case ra == nil:
					want = ErrNoSuchObject
				case len(ra.lists[listComponents]) > 0 || len(ra.lists[listDescendants]) > 0:
					want = ErrInUse
				default:
					for _, c := range ra.lists[listComposites] {
						ref[c].drop(listComponents, a)
					}
					for _, c := range ra.lists[listCorrespondents] {
						ref[c].drop(listCorrespondents, a)
					}
					if ra.ancestor != NilObject {
						ref[ra.ancestor].drop(listDescendants, a)
					}
					*ra = refObject{}
				}
			}
			switch {
			case want == nil && err != nil:
				t.Fatalf("step %d: op %d(%d, %d) failed: %v", step/3, op, a, b, err)
			case want == errNotLinked && err == nil,
				want != nil && want != errNotLinked && !errors.Is(err, want):
				t.Fatalf("step %d: op %d(%d, %d) returned %v, want %v", step/3, op, a, b, err, want)
			}
			for id := 1; id < len(ref); id++ {
				o := g.Object(ObjectID(id))
				if (o != nil) != ref[id].live {
					t.Fatalf("step %d: object %d live=%v, want %v", step/3, id, o != nil, ref[id].live)
				}
				if o == nil {
					continue
				}
				if o.Ancestor != ref[id].ancestor {
					t.Fatalf("step %d: object %d ancestor %d, want %d", step/3, id, o.Ancestor, ref[id].ancestor)
				}
				for l, got := range lists(o) {
					if !slices.Equal(got, ref[id].lists[l]) {
						t.Fatalf("step %d: object %d list %d = %v, want %v", step/3, id, l, got, ref[id].lists[l])
					}
				}
			}
			if err := g.CheckRelations(); err != nil {
				t.Fatalf("step %d: %v", step/3, err)
			}
		}
	})
}

// errNotLinked stands for Detach's untyped "not a component" error.
var errNotLinked = errors.New("not linked")

// TestCloneIsIndependent: a clone and its original share nothing either
// writes. Every mutation the graph offers runs on the clone — list inserts
// and in-place drops, a by-reference switch that gives an object its own
// profile, a delete, a new object — and the original must read as it did,
// while the clone holds consistent relations of its own.
func TestCloneIsIndependent(t *testing.T) {
	g := NewGraph()
	ty := mustType(t, g, "t", NilType, 10, FreqProfile{ConfigDown: 0.5},
		[]AttrDef{{Name: "big", Size: 100, AccessFreq: 0.2}})
	var ids []ObjectID
	for i := 0; i < 6; i++ {
		ids = append(ids, mustObject(t, g, "", 1, ty).ID)
	}
	for _, link := range [][2]ObjectID{{ids[0], ids[1]}, {ids[0], ids[2]}, {ids[1], ids[3]}, {ids[2], ids[3]}} {
		if err := g.Attach(link[0], link[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Correspond(ids[4], ids[5]); err != nil {
		t.Fatal(err)
	}
	v, err := g.Derive(ids[4])
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetAttrImpl(v.ID, 0, ByReference); err != nil {
		t.Fatal(err)
	}
	snapshot := func(g *Graph) (out []Object, rels [][numLists][]ObjectID, freqs []FreqProfile) {
		g.ForEachObject(func(o *Object) {
			out = append(out, *o)
			l := lists(o)
			for i := range l {
				l[i] = slices.Clone(l[i])
			}
			rels = append(rels, l)
			freqs = append(freqs, o.Freq())
		})
		return out, rels, freqs
	}
	objs, rels, freqs := snapshot(g)

	c := g.Clone()
	if err := c.Attach(ids[1], ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Detach(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := c.Correspond(ids[3], ids[4]); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttrImpl(v.ID, 0, ByCopy); err != nil {
		t.Fatal(err)
	}
	if err := c.SetAttrImpl(ids[5], 0, ByReference); err == nil {
		t.Fatal("an object with no inheritance source switched to by-reference")
	}
	if err := c.DeleteObject(ids[5]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewObject("n", 1, ty); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckRelations(); err != nil {
		t.Fatalf("clone after mutation: %v", err)
	}
	if c.NumObjects() != g.NumObjects() {
		t.Fatalf("clone holds %d objects after a delete and a create, original %d", c.NumObjects(), g.NumObjects())
	}

	gotObjs, gotRels, gotFreqs := snapshot(g)
	if len(gotObjs) != len(objs) {
		t.Fatalf("original holds %d objects, had %d", len(gotObjs), len(objs))
	}
	for i := range objs {
		if gotObjs[i].ID != objs[i].ID || gotObjs[i].Size != objs[i].Size || gotObjs[i].byRef != objs[i].byRef ||
			gotFreqs[i] != freqs[i] {
			t.Errorf("original object %d changed: %+v, was %+v", objs[i].ID, gotObjs[i], objs[i])
		}
		for l := range rels[i] {
			if !slices.Equal(gotRels[i][l], rels[i][l]) {
				t.Errorf("original object %d list %d: %v, was %v", objs[i].ID, l, gotRels[i][l], rels[i][l])
			}
		}
	}
	if err := g.CheckRelations(); err != nil {
		t.Fatalf("original after the clone's mutations: %v", err)
	}
}
