package engine

import (
	"math"
	"slices"
	"testing"

	"oodb/internal/model"
	"oodb/internal/workload"
)

// ocbReads draws ops from e's generator until it holds n of each OCB read
// kind, their target lists copied out of the generator's scratch.
func ocbReads(tb testing.TB, e *Engine, n int) map[workload.QueryKind][]workload.Op {
	tb.Helper()
	kinds := []workload.QueryKind{
		workload.QOCBSimple, workload.QOCBHierarchy,
		workload.QOCBStochastic, workload.QOCBScan,
	}
	ops := make(map[workload.QueryKind][]workload.Op, len(kinds))
	for draws := 0; ; draws++ {
		full := true
		for _, k := range kinds {
			full = full && len(ops[k]) >= n
		}
		if full {
			return ops
		}
		if draws == 100*n*len(kinds) {
			tb.Fatalf("%d draws did not yield %d ops of each OCB read kind", draws, n)
		}
		op := e.gen.Next()
		if slices.Contains(kinds, op.Kind) && len(ops[op.Kind]) < n {
			op.Targets = slices.Clone(op.Targets)
			ops[op.Kind] = append(ops[op.Kind], op)
		}
	}
}

// TestOCBReadsAllocFree: a steady-state OCB read — each of the four kinds
// through the stack's Execute on a warm world — allocates nothing. The
// simple traversal's visited set and DFS scratch are reused, so a traversal
// pays for what it reads, not for memory.
func TestOCBReadsAllocFree(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's allocations.
	e := ocbSmall.engine(t, ocbSmall.config(1))
	st := e.access.(*stack)
	for k, ops := range ocbReads(t, e, 1) {
		op := ops[0]
		if n := testing.AllocsPerRun(100, func() {
			if _, err := st.Execute(0, op); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: %v allocations per read", k, n)
		}
	}
}

// visitedExactly fails unless st's visited set holds exactly the members of
// st.visitBuf.
func visitedExactly(t *testing.T, st *stack, when string) {
	t.Helper()
	marked := 0
	for _, sl := range st.seen.slots {
		if sl.epoch == st.seen.epoch {
			marked++
		}
	}
	for _, id := range st.visitBuf {
		if !st.seen.has(id) {
			t.Errorf("%s: visited member %d is not marked", when, id)
		}
	}
	if marked != len(st.visitBuf) {
		t.Errorf("%s: %d objects marked, %d visited", when, marked, len(st.visitBuf))
	}
}

// TestReadSubtreeStartsEmpty: every traversal starts from an empty visited
// set — also one after a traversal that returned early on a missing root or
// a zero depth, and one across the set's epoch wrap — so it reads the same
// members each time, and the set holds exactly what was read on every
// return.
func TestReadSubtreeStartsEmpty(t *testing.T) {
	t.Parallel()
	e := ocbSmall.engine(t, ocbSmall.config(1))
	st := e.access.(*stack)
	root := model.NilObject
	for _, op := range ocbReads(t, e, 20)[workload.QOCBSimple] {
		if _, logical, err := st.readSubtree(op.Target, st.ocbDepth, false); err == nil && logical > 2 {
			root = op.Target
			break
		}
	}
	if root == model.NilObject {
		t.Fatal("no simple traversal read more than two objects")
	}
	traverse := func(id model.ObjectID, depth int) []model.ObjectID {
		t.Helper()
		if _, _, err := st.readSubtree(id, depth, false); err != nil {
			t.Fatal(err)
		}
		return slices.Clone(st.visitBuf)
	}
	want := traverse(root, st.ocbDepth)
	visitedExactly(t, st, "full traversal")

	missing := model.ObjectID(e.graph.NumObjects() + 1000)
	for _, early := range []struct {
		name  string
		id    model.ObjectID
		depth int
	}{
		{"missing root", missing, st.ocbDepth},
		{"depth 0", want[1], 0},
	} {
		if got := traverse(early.id, early.depth); !slices.Equal(got, []model.ObjectID{early.id}) {
			t.Errorf("%s: visited %v, want only the root", early.name, got)
		}
		visitedExactly(t, st, early.name)
		if got := traverse(root, st.ocbDepth); !slices.Equal(got, want) {
			t.Errorf("after %s: visited %v, want %v", early.name, got, want)
		}
		visitedExactly(t, st, "after "+early.name)
	}

	st.seen.epoch = math.MaxUint32
	if got := traverse(root, st.ocbDepth); !slices.Equal(got, want) {
		t.Errorf("across the epoch wrap: visited %v, want %v", got, want)
	}
	visitedExactly(t, st, "across the epoch wrap")
}

// TestOCBDeleteKeepsSharedMember: a subtree delete removes a member only the
// subtree references and keeps one that a composite outside the subtree
// also references — and with it the subtree's root, whose component
// survived.
func TestOCBDeleteKeepsSharedMember(t *testing.T) {
	t.Parallel()
	e := ocbSmall.engine(t, ocbSmall.config(1))
	class := e.ocbBase.Classes[0]
	insert := func(refs ...model.ObjectID) model.ObjectID {
		t.Helper()
		e.exec(t, workload.Op{Kind: workload.QOCBInsert, NewType: class, Targets: refs})
		return e.ocbBase.Order[len(e.ocbBase.Order)-1]
	}
	own, shared := insert(), insert()
	root := insert(own, shared)
	outside := insert(shared)

	e.exec(t, workload.Op{Kind: workload.QOCBDelete, Target: root})
	for _, c := range []struct {
		name string
		id   model.ObjectID
		live bool
	}{
		{"member only the subtree references", own, false},
		{"member shared with an outside composite", shared, true},
		{"root whose component survived", root, true},
		{"outside composite", outside, true},
	} {
		if live := e.graph.Object(c.id) != nil; live != c.live {
			t.Errorf("%s: live %v, want %v", c.name, live, c.live)
		}
	}
	if placed, live := e.store.NumPlaced(), e.graph.NumObjects(); placed != live {
		t.Errorf("%d objects placed, %d live", placed, live)
	}
}

// BenchmarkOCBTraversal times the traversal layer on a warm ocbSmall world:
// OCB's simple traversal (execOCBSimple, the configured depth) and a
// delete's subtree collection (readSubtree bounded only by ocbVisitCap,
// no context boost), cycling over drawn simple-traversal targets. The I/O
// program's buffer is kept between calls, as Execute keeps it. ns/op and
// allocs/op are per traversal.
func BenchmarkOCBTraversal(b *testing.B) {
	tmpl, err := ocbSmall.tmpl()
	if err != nil {
		b.Fatal(err)
	}
	e, err := tmpl.Engine(ocbSmall.config(1))
	if err != nil {
		b.Fatal(err)
	}
	st := e.access.(*stack)
	ops := ocbReads(b, e, 256)[workload.QOCBSimple]
	for _, bc := range []struct {
		name     string
		traverse func(workload.Op) error
	}{
		{"simple", func(op workload.Op) error {
			ios, _, err := st.execOCBSimple(op)
			st.iosBuf = ios[:0] // as Execute keeps it
			return err
		}},
		{"delete-collect", func(op workload.Op) error {
			ios, _, err := st.readSubtree(op.Target, ocbVisitCap, false)
			st.iosBuf = ios[:0]
			return err
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for _, op := range ops { // warm the pool and the scratch
				if err := bc.traverse(op); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.traverse(ops[i%len(ops)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
