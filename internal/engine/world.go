package engine

import (
	"errors"
	"fmt"
	"math/rand"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/ocb"
	"oodb/internal/sim"
	"oodb/internal/storage"
	"oodb/internal/txlog"
	"oodb/internal/workload"
)

// world is the one server stack the paper evaluates — logical database,
// storage backend, buffer pool, cluster manager, log — built once by
// buildWorld and driven by either Engine (simulated time, which adds the
// lock table) or Concurrent (wall-clock sessions). Everything a driver does not own lives
// here, so the two cannot drift apart: the same configuration leaves
// construction with the same placement, the same warm pool and zeroed
// statistics under both.
type world struct {
	cfg Config

	// sim supplies every seed-derived named random stream; the serial driver
	// also runs its event calendar.
	sim     *sim.Sim
	db      *workload.Database // OCT database; nil under the OCB workload
	ocbBase *ocb.Base          // OCB object base; nil under the OCT workload
	graph   *model.Graph
	store   storage.Backend
	durable storage.Durable // non-nil iff the backend is persistent
	frames  framePool       // the driver's pool, as the shared layers see it
	clust   core.ClusterStrategy
	log     *txlog.Manager

	// boostContext is set when the pool runs the context-sensitive policy,
	// the only one that consumes per-read structural boosts; stacks under
	// any other policy skip computing the boost set entirely.
	boostContext bool
}

// framePool is what the world asks of the pool a driver hands it. Both
// buffer.Pool and buffer.ConcurrentPool already have every method.
type framePool interface {
	buffer.Frames
	SetPageIO(io storage.PageIO)
	Shards() int
	Stats() buffer.Stats
	ResetStats()
	Resident() int
	Capacity() int
	FlushDirty() error
}

// buildWorld generates the configured workload family's logical database
// and opens the world over it, constructing the physical database by
// replaying the family's creation order. cfg must already be validated.
func buildWorld(cfg Config, newPool func(*world) (framePool, error)) (*world, error) {
	w := &world{cfg: cfg, sim: sim.New(cfg.Seed)}
	// Either workload family yields a (graph, store) pair and the order to
	// construct it in; everything below the workload seam (world.open) is
	// family-agnostic. The OCB base carries its own creation order
	// (references always point backwards in it); the OCT database
	// interleaves its creation sequences from a dedicated stream.
	var (
		g     *model.Graph
		mem   *storage.Manager
		order []model.ObjectID
	)
	if cfg.Workload == WorkloadOCB {
		b, err := ocb.Generate(cfg.OCB, cfg.DBBytes, cfg.PageSize, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("engine: generating OCB object base: %w", err)
		}
		w.ocbBase, g, mem, order = b, b.Graph, b.Store, b.Order
	} else {
		spec := workload.DefaultDBSpec(cfg.Density, cfg.DBBytes)
		spec.Seed = cfg.Seed
		d, err := workload.Generate(spec, cfg.PageSize)
		if err != nil {
			return nil, fmt.Errorf("engine: generating database: %w", err)
		}
		w.db, g, mem = d, d.Graph, d.Store
		order = d.ConstructionOrder(w.sim.Stream("construction"), 4)
		// Nothing after construction reads the per-family sequences, and
		// the world keeps d for the whole run.
		d.Families = nil
	}
	if err := w.open(g, mem, order, newPool); err != nil {
		return nil, err
	}
	return w, nil
}

// open wires the stack over the (graph, store) pair and the pool newPool
// returns, then constructs the physical database by replaying order through
// the configured clustering strategy. Construction I/Os are not timed and
// every statistic is reset afterwards — the measured run starts on the
// database that policy would have built, with the pool warm as a long-lived
// server's would be. An empty pair with no order opens an empty database.
//
// Once the storage backend is open, every error return closes it.
func (w *world) open(g *model.Graph, mem *storage.Manager, order []model.ObjectID,
	newPool func(*world) (framePool, error)) (err error) {
	cfg := w.cfg
	w.graph = g

	if w.frames, err = newPool(w); err != nil {
		return err
	}

	// The storage backend wraps the in-memory manager: "memory" is the
	// identity wrapping, "file" journals every placement to a WAL and bears
	// real page I/O. Everything downstream sees only storage.Backend.
	fsync, err := storage.ParseFsync(cfg.Fsync)
	if err != nil {
		return err
	}
	w.store, err = storage.NewBackendByName(cfg.Backend, mem, storage.BackendOptions{Dir: cfg.DataDir, Fsync: fsync})
	if err != nil {
		return err
	}
	w.log = txlog.NewManager(logBufBytes)
	// A persistent backend is discovered by capability, the same pattern as
	// the cluster strategies' PolicyTuner: the pool gets real page I/O, the
	// txlog gets durable transaction boundaries, the memory path pays nothing.
	if d, ok := w.store.(storage.Durable); ok {
		w.durable = d
		w.frames.SetPageIO(d)
		w.log.SetDurable(d)
		defer func() {
			if err != nil {
				err = errors.Join(err, d.Close())
			}
		}()
	}

	// Clustering strategies come from their own registry; "affinity" is the
	// paper's algorithm and the default.
	stratName := cfg.ClusterStrategy
	if stratName == "" {
		stratName = "affinity"
	}
	w.clust, err = core.NewClusterStrategy(stratName, core.ClusterSeam{
		Graph: w.graph, Store: w.store, Pool: w.frames,
		Policy: cfg.Cluster, Split: cfg.Split,
		Hints: cfg.Hints, Hint: userHint,
		PageSize:            cfg.PageSize,
		NoSiblingCandidates: cfg.NoSiblingCandidates,
	})
	if err != nil {
		return err
	}
	if err := w.constructDatabase(order); err != nil {
		return err
	}
	if w.durable != nil {
		// The construction placements were journaled under the bootstrap
		// pseudo-transaction; commit them durably before the run starts so
		// recovery always has the baseline every run transaction builds on.
		if err := w.durable.CommitBootstrap(); err != nil {
			return fmt.Errorf("engine: committing construction bootstrap: %w", err)
		}
	}
	return nil
}

// clone returns a copy of w in the state construction left it, to run cfg,
// which must share w's construction key. It copies what construction
// leaves behind — the graph, the store's page map, the pool's frame table
// and its policy's state, the clustering strategy's state — and starts the
// rest afresh: the kernel's streams, the log. A layer that
// cannot be copied (a persistent backend, a policy that is not a
// buffer.PolicyCloner, a strategy that is not a core.StrategyCloner) makes
// clone report false.
//
// clone only reads w, so clones of one world may be taken concurrently.
func (w *world) clone(cfg Config) (*world, bool) {
	if !w.cloneable() {
		return nil, false
	}
	c := &world{cfg: cfg, sim: sim.New(cfg.Seed), boostContext: w.boostContext}
	c.frames, _ = w.frames.(*buffer.Pool).Clone(buffer.PolicyConfig{Frames: cfg.Buffers, RNG: c.replacementStream})
	c.graph = w.graph.Clone()
	store := w.store.(*storage.Manager).Clone(c.graph)
	c.store = store
	c.clust = w.clust.(core.StrategyCloner).CloneOnto(c.graph, store, c.frames)
	c.log = txlog.NewManager(logBufBytes)
	// The workload generators append to the family's object lists, so the
	// clone's lists are clipped: its first append copies.
	if w.db != nil {
		d := *w.db
		d.Graph, d.Store = c.graph, store
		d.Roots, d.Blocks, d.Leaves = clip(d.Roots), clip(d.Blocks), clip(d.Leaves)
		c.db = &d
	}
	if w.ocbBase != nil {
		b := *w.ocbBase
		b.Graph, b.Store = c.graph, store
		b.Order, b.Versioned = clip(b.Order), clip(b.Versioned)
		b.Extents = make([][]model.ObjectID, len(b.Extents))
		for i, ext := range w.ocbBase.Extents {
			b.Extents[i] = clip(ext)
		}
		c.ocbBase = &b
	}
	return c, true
}

// cloneable reports whether clone can copy w.
func (w *world) cloneable() bool {
	_, mem := w.store.(*storage.Manager)
	pool, serial := w.frames.(*buffer.Pool)
	_, strat := w.clust.(core.StrategyCloner)
	return w.durable == nil && mem && serial && pool.Cloneable() && strat
}

// clip returns s with its capacity cut to its length.
func clip(s []model.ObjectID) []model.ObjectID { return s[:len(s):len(s)] }

// replacementStream is the stream a stochastic replacement policy of the
// serial pool draws from.
func (w *world) replacementStream() *rand.Rand { return w.sim.Stream("random-replacement") }

// newPolicy instantiates the configured replacement policy for a pool (or
// pool shard) of the given frame count; rng supplies the stream a
// stochastic policy draws from.
func (w *world) newPolicy(frames int, rng func() *rand.Rand) (buffer.Policy, error) {
	p, err := buffer.NewPolicyByName(w.cfg.Replacement.String(), buffer.PolicyConfig{Frames: frames, RNG: rng})
	if _, ok := p.(*core.ContextPolicy); ok {
		w.boostContext = true
	}
	return p, err
}

// constructDatabase replays the creation order through the clustering
// strategy, single-threaded, then resets every statistic.
func (w *world) constructDatabase(order []model.ObjectID) error {
	for _, id := range order {
		o := w.graph.Object(id)
		if o == nil {
			return fmt.Errorf("engine: construction order references unknown object %d", id)
		}
		if _, err := w.clust.PlaceNew(o); err != nil {
			return fmt.Errorf("engine: constructing database: placing %d: %w", id, err)
		}
	}
	if w.store.NumPlaced() != w.graph.NumObjects() {
		return fmt.Errorf("engine: construction placed %d of %d objects",
			w.store.NumPlaced(), w.graph.NumObjects())
	}
	w.frames.ResetStats()
	w.clust.ResetStats()
	w.log.ResetStats()
	return nil
}

// newGenerator builds the configured workload family's operation source on
// the named seed-derived stream.
func (w *world) newGenerator(stream string) workload.Source {
	wrk := w.sim.Stream(stream)
	if w.ocbBase != nil {
		return ocb.NewGenerator(w.ocbBase, w.cfg.OCB, wrk)
	}
	return workload.NewGenerator(w.db, workload.DefaultParams(w.cfg.Density, w.cfg.ReadWriteRatio), wrk)
}

// newStack builds one access-layer stack over the shared world: its own
// prefetcher (scratch buffers and counters), scratch and digest, telling
// gen — the driver's operation source — of every object it creates. The
// stack and its prefetcher reach the pool through frames: the world's own
// pool, or a concurrent session's view of it.
func (w *world) newStack(gen workload.Source, frames buffer.Frames) *stack {
	cfg := w.cfg
	pf := &core.Prefetcher{
		Graph: w.graph, Store: w.store, Pool: frames,
		Policy: cfg.Prefetch, Hints: cfg.Hints, Hint: userHint,
	}
	// Dynamic clustering strategies consume the access-pattern feed; the
	// capability is discovered like PolicyTuner and storage.Durable. Stacks
	// share the one strategy instance, which AccessObserver contracts to be
	// race-free under the shared guard.
	obsv, _ := w.clust.(core.AccessObserver)
	st := &stack{
		graph: w.graph, store: w.store, pool: frames,
		clust: w.clust, pf: pf, log: w.log, gen: gen,
		obsv:         obsv,
		boostContext: w.boostContext,
		boostLimit:   cfg.ContextBoostLimit,
		digest:       digestOffset,
	}
	if w.ocbBase != nil {
		p := cfg.OCB.WithDefaults()
		st.ocbDepth = p.Depth
		st.sizeBytes = ocbSizeTable(p.BaseSize)
	}
	return st
}

// transact runs one transaction inside its log bracket. A transaction whose
// execution fails is aborted, never committed: under a persistent backend
// its half-applied mutations must not reach recovery behind a commit record.
// The commit record is appended, not yet flushed: the driver follows a nil
// return with awaitDurable once it has dropped whatever serializes writers.
func (w *world) transact(a AccessLayer, txn int, req workload.Op) (AccessResult, error) {
	if err := w.log.Begin(txn); err != nil {
		return AccessResult{}, err
	}
	res, err := a.Execute(txn, req)
	if err != nil {
		return res, errors.Join(err, w.log.Abort(txn))
	}
	return res, w.log.End(txn)
}

// awaitDurable blocks until the commit transact just appended is as durable
// as the fsync policy makes it. Only then may the driver acknowledge the
// transaction (count it, sample its latency, release the serial driver's
// object locks). A memory-backed world has nothing to wait for.
func (w *world) awaitDurable() error {
	if w.durable == nil {
		return nil
	}
	return w.durable.WaitDurable()
}

// Close flushes the buffer pool's dirty pages and releases the persistent
// backend's files; a memory-backed world closes as a no-op. Idempotent.
// Close does not quiesce a running driver — call it after Run has returned.
func (w *world) Close() error {
	if w.durable == nil {
		return nil
	}
	d := w.durable
	w.durable = nil
	return errors.Join(w.frames.FlushDirty(), d.Close())
}
