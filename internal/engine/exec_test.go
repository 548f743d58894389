package engine

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// execFixture returns an engine on octTiny's world without running the
// user loop, so execute can be driven directly.
func execFixture(t *testing.T) *Engine {
	t.Helper()
	return octTiny.engine(t, octTiny.config(1))
}

// exec runs one transaction through the functional layer with logging
// bracketed, as startTxn would.
func (e *Engine) exec(t *testing.T, req workload.Op) ([]core.PhysIO, int) {
	t.Helper()
	txn := e.txnSeq
	e.txnSeq++
	if err := e.log.Begin(txn); err != nil {
		t.Fatal(err)
	}
	res, err := e.access.Execute(txn, req)
	if err != nil {
		t.Fatalf("execute(%v): %v", req.Kind, err)
	}
	if err := e.log.End(txn); err != nil {
		t.Fatal(err)
	}
	return res.IOs, res.Logical
}

func countLog(ios []core.PhysIO) int {
	n := 0
	for _, io := range ios {
		if io.Log {
			n++
		}
	}
	return n
}

func TestExecSimpleLookup(t *testing.T) {
	e := execFixture(t)
	target := e.db.Leaves[0]
	_, logical := e.exec(t, workload.Op{Kind: workload.QSimpleLookup, Target: target})
	if logical != 1 {
		t.Fatalf("logical=%d", logical)
	}
	if !e.frames.Contains(e.store.PageOf(target)) {
		t.Fatal("target page not resident after read")
	}
}

func TestExecComponentRetrievalLogicalCount(t *testing.T) {
	e := execFixture(t)
	root := e.graph.Object(e.db.Roots[0])
	_, logical := e.exec(t, workload.Op{Kind: workload.QComponentRetrieval, Target: root.ID})
	if logical != 1+len(root.Components()) {
		t.Fatalf("logical=%d, want 1+%d components", logical, len(root.Components()))
	}
}

func TestExecCheckoutReadsWholeHierarchy(t *testing.T) {
	e := execFixture(t)
	root := e.graph.Object(e.db.Roots[0])
	want := 1
	for _, b := range root.Components() {
		want += 1 + len(e.graph.Object(b).Components())
	}
	_, logical := e.exec(t, workload.Op{Kind: workload.QCheckout, Target: root.ID})
	if logical != want {
		t.Fatalf("logical=%d, want hierarchy size %d", logical, want)
	}
}

func TestExecUpdateDirtiesAndLogs(t *testing.T) {
	e := execFixture(t)
	target := e.db.Leaves[0]
	ios, logical := e.exec(t, workload.Op{Kind: workload.QUpdate, Target: target})
	if logical != 1 {
		t.Fatalf("logical=%d", logical)
	}
	if !e.frames.(*buffer.Pool).IsDirty(e.store.PageOf(target)) {
		t.Fatal("updated page not dirty")
	}
	if countLog(ios) == 0 {
		t.Fatal("update produced no log I/O (first touch needs a before image)")
	}
}

func TestExecInsertCreatesAndAttaches(t *testing.T) {
	e := execFixture(t)
	parent := e.db.Blocks[0]
	before := e.graph.NumObjects()
	po := e.graph.Object(parent)
	nComps := len(po.Components())
	leafT := e.db.Schema.LeafTypes[0]
	e.exec(t, workload.Op{Kind: workload.QInsert, AttachTo: parent, NewType: leafT})
	if e.graph.NumObjects() != before+1 {
		t.Fatal("no object created")
	}
	if len(po.Components()) != nComps+1 {
		t.Fatal("not attached to parent")
	}
	created := model.ObjectID(before + 1)
	if e.store.PageOf(created) == 0 {
		t.Fatal("created object unplaced")
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExecDeriveCreatesVersion(t *testing.T) {
	e := execFixture(t)
	root := e.db.Roots[0]
	ro := e.graph.Object(root)
	nDesc := len(ro.Descendants())
	e.exec(t, workload.Op{Kind: workload.QDerive, Target: root})
	if len(ro.Descendants()) != nDesc+1 {
		t.Fatal("no descendant recorded")
	}
	d := e.graph.Object(ro.Descendants()[len(ro.Descendants())-1])
	if d.Ancestor != root || d.Version != ro.Version+1 {
		t.Fatalf("derived: %+v", d)
	}
	if e.store.PageOf(d.ID) == 0 {
		t.Fatal("derived version unplaced")
	}
}

func TestExecStructUpdateTogglesLink(t *testing.T) {
	e := execFixture(t)
	leaf := e.db.Leaves[0]
	newParent := e.db.Blocks[1]
	lo := e.graph.Object(leaf)
	hadLink := false
	for _, c := range lo.Composites() {
		if c == newParent {
			hadLink = true
		}
	}
	e.exec(t, workload.Op{Kind: workload.QStructUpdate, Target: leaf, AttachTo: newParent})
	hasLink := false
	for _, c := range lo.Composites() {
		if c == newParent {
			hasLink = true
		}
	}
	if hasLink == hadLink {
		t.Fatal("struct update did not toggle the link")
	}
	// Toggling back restores the original shape.
	e.exec(t, workload.Op{Kind: workload.QStructUpdate, Target: leaf, AttachTo: newParent})
	hasLink = false
	for _, c := range lo.Composites() {
		if c == newParent {
			hasLink = true
		}
	}
	if hasLink != hadLink {
		t.Fatal("second toggle did not restore")
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExecScanReadsAllTargets(t *testing.T) {
	e := execFixture(t)
	scan := e.db.Leaves[:5]
	_, logical := e.exec(t, workload.Op{Kind: workload.QScan, Target: scan[0], Targets: scan})
	if logical != 5 {
		t.Fatalf("logical=%d", logical)
	}
}

func TestExecUnknownKind(t *testing.T) {
	e := execFixture(t)
	if err := e.log.Begin(99); err != nil {
		t.Fatal(err)
	}
	if _, err := e.access.Execute(99, workload.Op{Kind: workload.NumQueryKinds}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestExecDelete(t *testing.T) {
	e := execFixture(t)
	// Find an eligible leaf (no components, no descendants).
	var target model.ObjectID
	for _, id := range e.db.Leaves {
		o := e.graph.Object(id)
		if o != nil && len(o.Components()) == 0 && len(o.Descendants()) == 0 {
			target = id
			break
		}
	}
	if target == model.NilObject {
		t.Fatal("no eligible leaf")
	}
	before := e.graph.NumObjects()
	ios, logical := e.exec(t, workload.Op{Kind: workload.QDelete, Target: target})
	if logical != 1 {
		t.Fatalf("logical=%d", logical)
	}
	if countLog(ios) == 0 {
		t.Fatal("delete must log")
	}
	if e.graph.Object(target) != nil {
		t.Fatal("object survived delete")
	}
	if e.graph.NumObjects() != before-1 {
		t.Fatalf("NumObjects=%d", e.graph.NumObjects())
	}
	if e.store.PageOf(target) != 0 {
		t.Fatal("storage still places deleted object")
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reading the deleted object later degrades gracefully.
	_, logical = e.exec(t, workload.Op{Kind: workload.QSimpleLookup, Target: target})
	if logical != 1 {
		t.Fatal("stale read not counted")
	}
	// Deleting a composite degrades to an update.
	root := e.db.Roots[0]
	e.exec(t, workload.Op{Kind: workload.QDelete, Target: root})
	if e.graph.Object(root) == nil {
		t.Fatal("composite was deleted")
	}
}

// dirtyCounter counts the MarkDirty calls a stack makes on its pool.
type dirtyCounter struct {
	buffer.Frames
	marked int
}

func (d *dirtyCounter) MarkDirty(pg storage.PageID) error {
	d.marked++
	return d.Frames.MarkDirty(pg)
}

// TestWriteKindsLogWhatTheyDirty: every write kind of both workloads logs
// exactly one record per page it dirties and leaves every live object on
// exactly one page slot — the contract of the shared dirtyLog / create /
// relink / remove tails.
func TestWriteKindsLogWhatTheyDirty(t *testing.T) {
	t.Parallel()
	oct := execFixture(t)
	leaf := func() model.ObjectID {
		for _, id := range oct.db.Leaves {
			if o := oct.graph.Object(id); o != nil && len(o.Components()) == 0 && len(o.Descendants()) == 0 {
				return id
			}
		}
		t.Fatal("no deletable leaf")
		return model.NilObject
	}
	ocbEng, err := New(ocbAt(octTiny.config(1), 0))
	if err != nil {
		t.Fatal(err)
	}
	order := ocbEng.ocbBase.Order
	first, last := order[0], order[len(order)-1]

	for _, tc := range []struct {
		e  *Engine
		op workload.Op
	}{
		{oct, workload.Op{Kind: workload.QInsert, AttachTo: oct.db.Blocks[0], NewType: oct.db.Schema.LeafTypes[0]}},
		{oct, workload.Op{Kind: workload.QUpdate, Target: oct.db.Leaves[0]}},
		{oct, workload.Op{Kind: workload.QStructUpdate, Target: oct.db.Leaves[0], AttachTo: oct.db.Blocks[1]}},
		{oct, workload.Op{Kind: workload.QDerive, Target: oct.db.Roots[0]}},
		{oct, workload.Op{Kind: workload.QDelete, Target: leaf()}},
		{ocbEng, workload.Op{Kind: workload.QOCBInsert, NewType: ocbEng.ocbBase.Classes[0], Targets: order[:3], Size: workload.SizeMedium}},
		{ocbEng, workload.Op{Kind: workload.QOCBUpdate, Target: first}},
		{ocbEng, workload.Op{Kind: workload.QOCBUpdate, Target: first, Size: workload.SizeLarge}},
		{ocbEng, workload.Op{Kind: workload.QOCBRewire, Target: last, AttachTo: first}},
		{ocbEng, workload.Op{Kind: workload.QOCBDelete, Target: last}},
	} {
		e := tc.e
		st := e.access.(*stack)
		dc := &dirtyCounter{Frames: st.pool}
		st.pool = dc
		before := e.log.Stats().Records
		e.exec(t, tc.op)
		st.pool = dc.Frames
		records := e.log.Stats().Records - before
		if records == 0 || records != dc.marked {
			t.Errorf("%v: %d log records for %d dirtied pages", tc.op.Kind, records, dc.marked)
		}
		if placed, live := e.store.NumPlaced(), e.graph.NumObjects(); placed != live {
			t.Errorf("%v: %d objects placed, %d live", tc.op.Kind, placed, live)
		}
		if st.conserve != 0 {
			t.Errorf("%v: conservation violation counted", tc.op.Kind)
		}
	}
}
