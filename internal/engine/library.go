package engine

import (
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/sim"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// Library is the third driver over the world, beside Engine and Concurrent:
// no clock and no generator — the application calling the embedding API is
// the workload, one operation per call. It owns nothing but the accounting
// of what its caller did; every read and write runs the stack primitives
// the two engines execute. It is not safe for concurrent use.
type Library struct {
	*world

	stack  *stack
	ops    IOCounts
	txnSeq int

	// ios is the I/O-program buffer every call reuses: a program is
	// accounted before the call returns, so a read of a resident object
	// allocates nothing.
	ios []core.PhysIO
}

// callerDriven is the library's operation source: nothing is generated, and
// a created object needs no announcing to a caller that created it.
type callerDriven struct{}

func (callerDriven) Next() workload.Op                        { return workload.Op{} }
func (callerDriven) SessionLength() int                       { return 0 }
func (callerDriven) NoteCreated(model.ObjectID, model.TypeID) {}
func (callerDriven) SetReadWriteRatio(float64) bool           { return false }

// OpenLibrary opens the world over the caller's (graph, store) pair and the
// serial pool. The pair is the caller's to populate: an empty one opens an
// empty database, and objects placed on it directly (a snapshot restore)
// are the database's from then on. The workload-generation and timing
// fields of cfg are unused.
func OpenLibrary(cfg Config, g *model.Graph, mem *storage.Manager) (*Library, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &world{cfg: cfg, sim: sim.New(cfg.Seed)}
	if err := w.open(g, mem, nil, 1, serialPool); err != nil {
		return nil, err
	}
	return &Library{world: w, stack: w.newStack(callerDriven{}, 0)}, nil
}

// Read performs one logical read of id — buffer access, context boosts and
// the prefetch policy — as the root of a navigation. The library has no
// response path for prefetch I/Os to stay out of, so they join the program.
func (l *Library) Read(id model.ObjectID) error {
	st := l.stack
	st.pendingBG = st.pendingBG[:0]
	st.notFound = 0
	ios, err := st.readObject(l.ios[:0], id, true, true)
	if err != nil {
		return err
	}
	ios = append(ios, st.pendingBG...)
	l.ios = ios[:0]
	l.ops.note(AccessResult{IOs: ios, Logical: 1, NotFound: st.notFound})
	return nil
}

// writeFunc is one library write — a stack primitive building its I/O
// program in l.ios — as the AccessLayer the world's log bracket runs.
type writeFunc func(txn int) ([]core.PhysIO, error)

// Execute implements AccessLayer.
func (f writeFunc) Execute(txn int, _ workload.Op) (AccessResult, error) {
	ios, err := f(txn)
	return AccessResult{IOs: ios}, err
}

// write runs one write as a transaction of its own: inside the log bracket
// every engine transaction runs in (a failed write is aborted, never
// committed), then the per-write conservation check and the accounting.
func (l *Library) write(op writeFunc) error {
	txn := l.txnSeq
	l.txnSeq++
	res, err := l.transact(op, txn, workload.Op{})
	if err == nil {
		err = l.awaitDurable()
	}
	if err != nil {
		return err
	}
	l.ios = res.IOs[:0]
	if l.store.NumPlaced() != l.graph.NumObjects() {
		l.stack.conserve++
	}
	l.ops.note(res)
	return nil
}

// Create places the new, unplaced object o and journals the page of each
// object in linked, whose relationship lists gained o.
func (l *Library) Create(o *model.Object, linked ...model.ObjectID) error {
	return l.write(func(txn int) ([]core.PhysIO, error) {
		return l.stack.create(l.ios[:0], txn, o, linked...)
	})
}

// Relink runs run-time reclustering on o after the link between o and other
// changed, journaling both ends.
func (l *Library) Relink(o, other *model.Object) error {
	return l.write(func(txn int) ([]core.PhysIO, error) {
		return l.stack.relink(l.ios[:0], txn, o, other)
	})
}

// Remove takes o off its page and out of the graph.
func (l *Library) Remove(o *model.Object) error {
	return l.write(func(txn int) ([]core.PhysIO, error) {
		return l.stack.remove(l.ios[:0], txn, o)
	})
}

// Results reports every call so far: their I/O accounting, every layer's
// statistics (the library takes no locks) and the oracle observables. The
// library has no clock and no generator, so Completed, Throughput and the
// per-kind maps stay empty.
func (l *Library) Results() ResultCore {
	r := l.report()
	r.IOCounts = l.ops
	r.LogicalDigest = l.stack.digest
	r.ConservationViolations = l.stack.conserve
	return r
}

// Clusterer returns the world's clustering strategy.
func (l *Library) Clusterer() core.ClusterStrategy { return l.clust }

// Prefetcher returns the prefetcher behind Read.
func (l *Library) Prefetcher() *core.Prefetcher { return l.stack.pf }
