package engine

import (
	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/txlog"
	"oodb/internal/workload"
)

// AccessResult is what the access layer hands back for one transaction: the
// ordered physical I/O program, the background (prefetch) I/Os that load the
// disks without serializing into the response path, the logical operation
// count, how many logical reads found their object already deleted, and how
// many found its page resident.
//
// IOs and Background are backed by the layer's reusable buffers: they are
// valid until the next Execute call. A caller that plays the program out
// over time, as the serial driver does across other transactions' Execute
// calls, copies it into a buffer of its own.
type AccessResult struct {
	IOs        []core.PhysIO
	Background []core.PhysIO
	Logical    int
	NotFound   int
	Hits       int
}

// AccessLayer is the seam between the timed simulation (engine) and the
// functional storage stack: it turns one logical transaction request into
// the physical I/O program, performing every graph, storage, buffer,
// cluster, and log mutation as it goes. The stack type below — graph +
// storage backend + buffer pool + cluster strategy + prefetcher + log — is
// the default implementation.
type AccessLayer interface {
	Execute(txn int, req workload.Op) (AccessResult, error)
}

// stack is the default AccessLayer: the layered storage stack the paper
// describes, wired together behind the interface seams.
type stack struct {
	graph *model.Graph
	store storage.Backend
	pool  buffer.Frames
	clust core.ClusterStrategy
	pf    *core.Prefetcher
	log   *txlog.Manager
	gen   workload.Source

	// obsv is the cluster strategy's access-pattern feed, discovered by
	// capability at construction (nil for strategies that place statically,
	// so the hot path pays one nil check). NoteAccess fires per found
	// logical read; NoteRemoved fires before each storage removal.
	obsv core.AccessObserver

	// boostContext enables the per-read context boosts (set when the
	// replacement policy is the context-sensitive one); boostLimit is the
	// configured bound (0 = core default, negative = disabled).
	boostContext bool
	boostLimit   int

	// ocbDepth bounds the OCB simple-traversal expansion (zero under the
	// OCT workload).
	ocbDepth int

	// sizeBytes maps payload-size classes to bytes (derived from the OCB
	// BaseSize at construction; all-zero under OCT, where Size is always
	// unspecified and writes keep their schema-implied sizes).
	sizeBytes [workload.NumSizeClasses]int

	// conserve counts per-write conservation violations: after every write
	// the placed-object count must equal the live-object count (every live
	// object occupies exactly one page slot). Zero on a correct stack; the
	// differential oracle asserts it stays zero.
	conserve int

	// digest folds every logical read (object id and found/not-found), in
	// execution order, into an FNV-style accumulator. For a read-only
	// workload the execution order equals the submission order regardless of
	// policy wiring — shared locks never conflict — so the digest is the
	// differential oracle's logical-result fingerprint.
	digest uint64

	notFound int // per-Execute logical reads of deleted objects
	hits     int // per-Execute logical reads whose page was resident

	// pendingBG accumulates background (prefetch) I/Os generated while the
	// current transaction executes.
	pendingBG []core.PhysIO

	// Hot-path scratch. The functional layer runs atomically per transaction
	// inside the single-threaded event loop, and these buffers are consumed
	// before it yields, so one set per stack suffices. iosBuf backs the
	// physical I/O program Execute returns, which AccessResult's contract
	// keeps valid only until the next Execute.
	iosBuf    []core.PhysIO
	boostBuf  []storage.PageID // context-boost targets, drained per read
	expandBuf []model.ObjectID // readClosure expansion targets
	blockBuf  []model.ObjectID // checkout first-level components
	leafBuf   []model.ObjectID // checkout second-level components

	// readSubtree state (OCB simple traversal and subtree delete).
	walkBuf  []ocbFrame       // DFS stack
	seen     *visitSet        // visited set, allocated on first use
	visitBuf []model.ObjectID // objects read, in discovery order
}

var _ AccessLayer = (*stack)(nil)

// Execute implements AccessLayer.
func (a *stack) Execute(txn int, req workload.Op) (AccessResult, error) {
	a.pendingBG = a.pendingBG[:0]
	a.notFound, a.hits = 0, 0
	ios, logical, err := a.execute(txn, req)
	if ios != nil {
		a.iosBuf = ios[:0]
	}
	if err == nil && req.Kind.IsWrite() && a.store.NumPlaced() != a.graph.NumObjects() {
		// Per-write conservation: every live object occupies exactly one
		// page slot. Both counts are O(1), so checking every write is free.
		a.conserve++
	}
	return AccessResult{
		IOs:        ios,
		Background: a.pendingBG,
		Logical:    logical,
		NotFound:   a.notFound,
		Hits:       a.hits,
	}, err
}
