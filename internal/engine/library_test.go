package engine

import (
	"errors"
	"fmt"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// openTestLibrary opens a library driver over an empty pair with one
// composite-shaped type defined.
func openTestLibrary(t *testing.T, cfg Config) (*Library, model.TypeID) {
	t.Helper()
	g := model.NewGraph()
	l, err := OpenLibrary(cfg, g, storage.NewManager(g, cfg.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	var freq model.FreqProfile
	freq[model.ConfigDown] = 0.5
	freq[model.ConfigUp] = 0.3
	ty, err := g.DefineType("cell", model.NilType, 400, freq, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l, ty
}

// applyLibrary drives op through the library driver the way the root
// package's DB methods do: graph bookkeeping, then one write primitive.
func applyLibrary(l *Library, op workload.Op) error {
	g := l.graph
	switch op.Kind {
	case workload.QInsert:
		o, err := g.NewObject(fmt.Sprintf("o%d", g.NumObjects()), 1, op.NewType)
		if err != nil {
			return err
		}
		if op.AttachTo == model.NilObject {
			return l.Create(o)
		}
		if err := g.Attach(op.AttachTo, o.ID); err != nil {
			return err
		}
		return l.Create(o, op.AttachTo)
	case workload.QStructUpdate:
		if err := g.Attach(op.AttachTo, op.Target); err != nil {
			return err
		}
		return l.Relink(g.Object(op.Target), g.Object(op.AttachTo))
	case workload.QDerive:
		o, err := g.Derive(op.Target)
		if err != nil {
			return err
		}
		return l.Create(o, op.Target)
	case workload.QDelete:
		return l.Remove(g.Object(op.Target))
	}
	return fmt.Errorf("applyLibrary: no library call for %v", op.Kind)
}

// TestLibraryFailedWriteAborts: a library write whose placement fails half
// applied returns the fault and reaches the log as an abort — recovery lands
// on the last good commit, exactly as for an engine transaction
// (TestFailedTransactionAborts).
func TestLibraryFailedWriteAborts(t *testing.T) {
	cfg := fileConfig(t, octSmall.config(1), "never")
	cfg.ClusterStrategy = failingStrategy
	placeCountdown.Store(0)
	l, ty := openTestLibrary(t, cfg)

	insert := workload.Op{Kind: workload.QInsert, NewType: ty}
	for i := 0; i < 2; i++ {
		if err := applyLibrary(l, insert); err != nil {
			t.Fatal(err)
		}
	}
	placeCountdown.Store(1) // the next placement fails
	if err := applyLibrary(l, insert); !errors.Is(err, errInjected) {
		t.Fatalf("Create returned %v, want the injected fault", err)
	}
	if st := l.log.Stats(); st.Aborts != 1 || l.log.Open() != 0 {
		t.Errorf("log: %d aborts, %d transactions open; want 1 and 0", st.Aborts, l.log.Open())
	}
	if got := l.Results(); got.LogIOs != 2 {
		t.Errorf("accounted %d log I/Os, want the 2 committed creates'", got.LogIOs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := storage.RecoverDir(cfg.DataDir, nil)
	if err != nil {
		t.Fatalf("RecoverDir: %v", err)
	}
	if rec.Committed != 2 || atFailure.committed != 2 {
		t.Errorf("recovered %d committed transactions (the failing write saw %d), want the 2 that succeeded", rec.Committed, atFailure.committed)
	}
	if rec.Skipped == 0 {
		t.Error("recovery skipped nothing: the failed write's placement was replayed")
	}
	if rec.Digest != atFailure.digest {
		t.Errorf("recovered digest %016x, want the last good commit's %016x", rec.Digest, atFailure.digest)
	}
}

// TestLibraryMatchesExecute extends TestDriversShareConstruction to the
// third driver: one scripted create/attach/derive/delete sequence, driven
// through the library's calls and through stack.Execute on a second empty
// world, must build the same physical database. The pool holds every page,
// so residency — the one thing the engines' extra reads change — cannot
// steer a placement.
func TestLibraryMatchesExecute(t *testing.T) {
	t.Parallel()
	cfg := octSmall.config(1)
	cfg.Cluster = core.PolicyNoLimit
	cfg.Split = core.LinearSplit
	cfg.Buffers = 512
	lib, ty := openTestLibrary(t, cfg)
	ref, _ := openTestLibrary(t, cfg)

	// Object IDs are handed out in creation order, so the script can name
	// its objects ahead of time. Object 1 is the root composite, seeded
	// through Create on both worlds: Execute has no operation that creates
	// an unattached object.
	root := workload.Op{Kind: workload.QInsert, NewType: ty}
	for _, l := range []*Library{lib, ref} {
		if err := applyLibrary(l, root); err != nil {
			t.Fatal(err)
		}
	}
	var (
		script []workload.Op
		next   = model.ObjectID(2)
		blocks []model.ObjectID // composites under the root
		leaves []model.ObjectID // deletable: no components, no descendants
		live   = 1
	)
	insert := func(parent model.ObjectID) model.ObjectID {
		script = append(script, workload.Op{Kind: workload.QInsert, AttachTo: parent, NewType: ty})
		next++
		live++
		return next - 1
	}
	for b := 0; b < 6; b++ {
		blocks = append(blocks, insert(1))
	}
	for i := 0; i < 90; i++ {
		leaf := insert(blocks[i%len(blocks)])
		switch i % 5 {
		case 1: // share the leaf with a second composite
			script = append(script, workload.Op{Kind: workload.QStructUpdate, Target: leaf, AttachTo: blocks[(i+1)%len(blocks)]})
			leaves = append(leaves, leaf)
		case 2: // check in a new version; the ancestor now anchors it
			script = append(script, workload.Op{Kind: workload.QDerive, Target: leaf})
			next++
			live++
		case 4: // delete the oldest deletable leaf
			script = append(script, workload.Op{Kind: workload.QDelete, Target: leaves[0]})
			leaves = leaves[1:]
			live--
		default:
			leaves = append(leaves, leaf)
		}
	}

	for i, op := range script {
		if err := applyLibrary(lib, op); err != nil {
			t.Fatalf("library step %d (%v): %v", i, op.Kind, err)
		}
		if _, err := ref.transact(ref.stack, i, op); err != nil {
			t.Fatalf("Execute step %d (%v): %v", i, op.Kind, err)
		}
	}

	if a, b := placementDigest(lib.store), placementDigest(ref.store); a != b || a == 0 {
		t.Errorf("placement digest: library %016x, Execute %016x", a, b)
	}
	if a, b := finalStateDigest(lib.graph), finalStateDigest(ref.graph); a != b {
		t.Errorf("final-state digest: library %016x, Execute %016x", a, b)
	}
	for name, l := range map[string]*Library{"library": lib, "Execute": ref} {
		if l.store.NumPlaced() != live || l.graph.NumObjects() != live {
			t.Errorf("%s: placed %d, live %d objects; want %d", name, l.store.NumPlaced(), l.graph.NumObjects(), live)
		}
		if l.stack.conserve != 0 {
			t.Errorf("%s: %d conservation violations", name, l.stack.conserve)
		}
		if err := l.store.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	cs := lib.clust.Stats()
	if cs != ref.clust.Stats() {
		t.Errorf("cluster stats: library %+v, Execute %+v", cs, ref.clust.Stats())
	}
	if cs.Splits == 0 || cs.Moves == 0 {
		t.Errorf("script caused %d splits and %d moves; both must be exercised", cs.Splits, cs.Moves)
	}
}
