package engine

import (
	"slices"
	"testing"

	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/workload"
)

// TestWriteLockSetsCover: over every workload.QueryKind, the lock set
// appendLockSet builds covers every existing object the kind's executor
// mutates, and a read kind locks nothing exclusive. Operations are drawn
// from an OCT stream and a write-enabled OCB stream and every write is
// executed; the first few of each write kind run against a copy of the
// graph taken before it, and every object the two differ in must be
// covered.
//
// An object is mutated when the transaction deletes it or changes its size,
// type, version or inheritance links, or its configuration (components,
// composites) or version-history (descendants) lists — save a list that only
// lost objects the transaction deleted, whose own locks cover every
// reference to them. Correspondence lists are left out: a derive gives the
// new version its ancestor's correspondences, and no lock set names the
// correspondents whose inverse entries that adds.
//
// An object is covered when the set holds it exclusive, directly or as a
// configuration component of an exclusively locked composite: the paper's
// composite-object granularity, by which a navigation's root lock covers
// its expansion and an OCB delete's covers the subtree it dismantles.
func TestWriteLockSetsCover(t *testing.T) {
	const perKind = 8 // writes checked against a graph copy, per kind
	var checked, mutations [workload.NumQueryKinds]int
	check := func(e *Engine, req workload.Op) {
		t.Helper()
		set := appendLockSet(nil, req)
		before := e.graph.Clone()
		e.exec(t, req)
		checked[req.Kind]++
		for _, id := range mutatedObjects(before, e.graph) {
			mutations[req.Kind]++
			if !coveredBy(before, set, id) {
				t.Errorf("%v (target %d, attach-to %d, targets %v): lock set %v does not cover mutated object %d",
					req.Kind, req.Target, req.AttachTo, req.Targets, set, id)
			}
		}
	}

	ocbEng := ocbWrites.engine(t, ocbWrites.config(1))
	// The stream's OCB deletes find their members shared and degrade to an
	// update, so one that dismantles a subtree is scripted: a component-less
	// C, a composite R over it, then R's delete, which removes both.
	newest := func() model.ObjectID { return ocbEng.ocbBase.Order[len(ocbEng.ocbBase.Order)-1] }
	class := ocbEng.ocbBase.Classes[0]
	check(ocbEng, workload.Op{Kind: workload.QOCBInsert, NewType: class})
	c := newest()
	check(ocbEng, workload.Op{Kind: workload.QOCBInsert, NewType: class, Target: c, Targets: []model.ObjectID{c}})
	r := newest()
	check(ocbEng, workload.Op{Kind: workload.QOCBDelete, Target: r})
	if ocbEng.graph.Object(c) != nil || ocbEng.graph.Object(r) != nil {
		t.Fatalf("scripted OCB delete of %d left it or its component %d live", r, c)
	}

	for _, e := range []*Engine{octSmall.engine(t, octSmall.config(1)), ocbEng} {
		for draws := 0; draws < 20000; draws++ {
			req := e.gen.Next()
			switch {
			case !req.Kind.IsWrite():
				for _, r := range appendLockSet(nil, req) {
					if r.Mode == lock.Exclusive {
						t.Fatalf("read %v locks %d exclusive", req.Kind, r.Obj)
					}
				}
			case checked[req.Kind] < perKind:
				check(e, req)
			default:
				e.exec(t, req)
			}
		}
	}
	for k := workload.QueryKind(0); k < workload.NumQueryKinds; k++ {
		// An OCT update rewrites attributes in place, which the graph does
		// not record; every other write kind must have been seen mutating.
		if k.IsWrite() && (checked[k] == 0 || mutations[k] == 0 && k != workload.QUpdate) {
			t.Errorf("%v: %d writes checked, %d mutated objects", k, checked[k], mutations[k])
		}
	}
}

// mutatedObjects returns the objects live in before that the transaction
// which turned it into after mutated, in the sense TestWriteLockSetsCover
// states.
func mutatedObjects(before, after *model.Graph) []model.ObjectID {
	deleted := func(id model.ObjectID) bool { return after.Object(id) == nil }
	var out []model.ObjectID
	before.ForEachObject(func(b *model.Object) {
		a := after.Object(b.ID)
		if a == nil || a.Size != b.Size || a.Type != b.Type || a.Version != b.Version ||
			a.Ancestor != b.Ancestor || a.InheritsFrom != b.InheritsFrom ||
			!lostOnly(b.Components(), a.Components(), deleted) ||
			!lostOnly(b.Composites(), a.Composites(), deleted) ||
			!lostOnly(b.Descendants(), a.Descendants(), deleted) {
			out = append(out, b.ID)
		}
	})
	return out
}

// lostOnly reports whether list after is list before less some of the
// objects gone reports true for.
func lostOnly(before, after []model.ObjectID, gone func(model.ObjectID) bool) bool {
	if slices.Equal(before, after) {
		return true
	}
	return slices.Equal(slices.DeleteFunc(slices.Clone(before), gone), after)
}

// coveredBy reports whether set holds id exclusive in g, directly or as a
// configuration component, at any depth, of an object it holds exclusive.
func coveredBy(g *model.Graph, set []lock.Request, id model.ObjectID) bool {
	var todo []model.ObjectID
	for _, r := range set {
		if r.Mode == lock.Exclusive {
			todo = append(todo, r.Obj)
		}
	}
	seen := make(map[model.ObjectID]bool)
	for len(todo) > 0 {
		x := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if x == id {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		if o := g.Object(x); o != nil {
			todo = append(todo, o.Components()...)
		}
	}
	return false
}
