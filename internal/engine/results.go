package engine

import (
	"fmt"
	"math"
	"strings"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/stats"
	"oodb/internal/storage"
	"oodb/internal/txlog"
	"oodb/internal/workload"
)

// Metrics collects per-run measurements while the simulation executes. The
// tallies keep moments and the one quantile the run reports, the write p99,
// comes from a fixed-size histogram, so a finished transaction leaves
// nothing behind.
type Metrics struct {
	respAll   stats.Tally
	respRead  stats.Tally
	respWrite stats.Tally
	// writeHist holds write response times in simulated microseconds.
	writeHist stats.Hist

	// ops accounts the measured transactions; warm-up transactions count
	// only toward its NotFoundReads.
	ops          IOCounts
	perKindCount [workload.NumQueryKinds]int
	perKindIOs   [workload.NumQueryKinds]int
	perKindHits  [workload.NumQueryKinds]int
	perKindResp  [workload.NumQueryKinds]stats.Tally

	// warmup is the number of leading transactions whose measurements are
	// discarded; skipped counts how many have been discarded so far.
	warmup  int
	skipped int

	// ratioIgnored counts phased read/write-ratio changes the workload
	// source refused to honor (SetReadWriteRatio returned false).
	ratioIgnored int

	err error
}

// inWarmup reports whether measurements are still being discarded.
func (m *Metrics) inWarmup() bool { return m.skipped < m.warmup }

func (m *Metrics) note(kind workload.QueryKind, res AccessResult) {
	if m.inWarmup() {
		m.ops.NotFoundReads += res.NotFound
		return
	}
	m.ops.note(res)
	m.perKindCount[kind]++
	m.perKindIOs[kind] += len(res.IOs)
	m.perKindHits[kind] += res.Hits
}

func (m *Metrics) complete(kind workload.QueryKind, resp float64) {
	if m.inWarmup() {
		m.skipped++
		return
	}
	m.respAll.Add(resp)
	m.perKindResp[kind].Add(resp)
	if kind.IsWrite() {
		m.respWrite.Add(resp)
		m.writeHist.Record(int64(math.Round(resp * 1e6)))
	} else {
		m.respRead.Add(resp)
	}
}

// IOCounts is the logical and physical I/O accounting of a set of
// transactions.
type IOCounts struct {
	LogicalOps    int
	PhysReads     int
	PhysWrites    int
	LogIOs        int // physical log-disk writes charged to transactions
	BackgroundIOs int // asynchronous prefetch I/Os
	NotFoundReads int // logical reads that found the object deleted
}

// note adds one executed transaction.
func (c *IOCounts) note(res AccessResult) {
	c.LogicalOps += res.Logical
	c.BackgroundIOs += len(res.Background)
	c.NotFoundReads += res.NotFound
	for _, io := range res.IOs {
		switch {
		case io.Log:
			c.LogIOs++
		case io.Kind == core.ReadIO:
			c.PhysReads++
		default:
			c.PhysWrites++
		}
	}
}

// add folds another set's counts in.
func (c *IOCounts) add(o IOCounts) {
	c.LogicalOps += o.LogicalOps
	c.PhysReads += o.PhysReads
	c.PhysWrites += o.PhysWrites
	c.LogIOs += o.LogIOs
	c.BackgroundIOs += o.BackgroundIOs
	c.NotFoundReads += o.NotFoundReads
}

// ResultCore is what every driver reports about a run: the logical
// accounting, every layer's own statistics, and the differential-oracle
// observables. Results and ConcurrentResults embed it and add their own
// clock's measurements; the library returns it bare. Each driver applies its
// own warm-up rule to the counters (the serial engine excludes warm-up
// transactions from them, the concurrent engine only from its latency
// distribution).
type ResultCore struct {
	Config Config

	Completed int
	// Throughput is completed transactions per second of the driver's clock
	// (simulated seconds for Results, wall-clock for ConcurrentResults).
	Throughput float64
	IOCounts
	// KindCount maps query-kind name to its transaction count, KindIOs to
	// the foreground physical I/Os those transactions issued, and KindHits
	// to their logical reads that found the page resident: the
	// per-operation-kind I/O and hit-rate breakdown the OCB analysis reads.
	KindCount map[string]int
	KindIOs   map[string]int
	KindHits  map[string]int

	// Component statistics, each layer's own, read off the shared
	// structures at end of run. PoolResident and PoolCapacity expose
	// end-of-run buffer occupancy for the occupancy conservation invariant;
	// Locks is the zero value when locking is disabled, and LocksHeld —
	// objects still locked at end of run — must be zero. PoolShards and
	// LockShards are the shard counts the pool and lock table were sized to
	// (LockShards is 0 with locking off).
	Pool         buffer.Stats
	HitRatio     float64
	PoolResident int
	PoolCapacity int
	PoolShards   int
	Cluster      core.ClusterStats
	Log          txlog.Stats
	Locks        lock.Stats
	LocksHeld    int
	LockShards   int

	// --- Differential-oracle observables ---

	// LogicalDigest folds every logical read (id, found/not-found) in
	// execution order; the concurrent engine XORs its per-session digests.
	// Two runs of the same read-only transaction stream must produce the
	// same digest no matter the policy wiring, and a one-session concurrent
	// run must produce the serial engine's.
	LogicalDigest uint64
	// FinalStateDigest folds the end-of-run logical database — every live
	// object's identity, type, size, configuration references, and
	// inheritance link, in ID order. Under a write-enabled stream executed
	// without lock-induced reordering, every policy wiring (and a
	// one-session concurrent run) must converge on the same final logical
	// state; this digest is what the oracle compares.
	FinalStateDigest uint64
	// ConservationViolations counts writes after which the placed-object
	// count disagreed with the live-object count (must be zero: every live
	// object occupies exactly one page slot).
	ConservationViolations int
	// LiveObjects and PlacedObjects expose the end-of-run counts behind the
	// conservation invariant.
	LiveObjects   int
	PlacedObjects int

	// Durability reports a persistent backend's log I/O and the page
	// transfers it counted (zero value under the in-memory backend).
	Durability storage.DurableStats
}

// report fills the core fields read off the shared structures; the drivers
// add the counters their own bookkeeping holds.
func (w *world) report() ResultCore {
	r := ResultCore{
		Config:           w.cfg,
		Pool:             w.frames.Stats(),
		PoolResident:     w.frames.Resident(),
		PoolCapacity:     w.frames.Capacity(),
		PoolShards:       w.frames.Shards(),
		Cluster:          w.clust.Stats(),
		Log:              w.log.Stats(),
		FinalStateDigest: finalStateDigest(w.graph),
		LiveObjects:      w.graph.NumObjects(),
		PlacedObjects:    w.store.NumPlaced(),
		KindCount:        make(map[string]int),
		KindIOs:          make(map[string]int),
		KindHits:         make(map[string]int),
	}
	r.HitRatio = r.Pool.HitRatio()
	if w.locks != nil {
		r.Locks = w.locks.Stats()
		r.LocksHeld = w.locks.Locked()
		r.LockShards = w.locks.Shards()
	}
	if w.durable != nil {
		r.Durability = w.durable.DurableStats()
	}
	return r
}

// LayerLines renders the per-layer accounting both CLIs print after a run,
// one indented line per layer: pool, locks (with locking on), cluster, log,
// and wal (on a persistent backend).
func (r ResultCore) LayerLines() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  pool: hit=%.3f resident=%d/%d shards=%d evictions=%d flushes=%d\n",
		r.HitRatio, r.PoolResident, r.PoolCapacity, r.PoolShards, r.Pool.Evictions, r.Pool.Flushes)
	if r.Config.Locking {
		fmt.Fprintf(&b, "  locks: requests=%d conflicts=%d max-waiters=%d shards=%d\n",
			r.Locks.Requests, r.Locks.Conflicts, r.Locks.MaxWaiters, r.LockShards)
	}
	fmt.Fprintf(&b, "  cluster: placements=%d moves=%d splits=%d candidateIOs=%d\n",
		r.Cluster.Placements, r.Cluster.Moves, r.Cluster.Splits, r.Cluster.CandidateIOs)
	fmt.Fprintf(&b, "  log: records=%d before-image IOs=%d buffer flushes=%d\n",
		r.Log.Records, r.Log.BeforeImageIOs, r.Log.BufferFlushes)
	if d := r.Durability; d != (storage.DurableStats{}) {
		fmt.Fprintf(&b, "  wal: appends=%d fsyncs=%d bytes=%d page(r/w)=%d/%d committed=%d\n",
			d.WALAppends, d.WALSyncs, d.WALBytes, d.PageReads, d.PageWrites, d.Committed)
	}
	return b.String()
}

// Results summarizes one simulation run: the shared ResultCore (counters
// exclude warm-up transactions) plus simulated-time measurements.
type Results struct {
	ResultCore

	// Response-time statistics in seconds.
	MeanResponse  float64
	ReadResponse  float64
	WriteResponse float64
	// P99WriteResponse is the 99th-percentile write response time — the
	// write-mix macro benchmark's tail-latency metric. It is read off a
	// stats.Hist, so it carries the histogram's ~3 % bucket error.
	P99WriteResponse float64
	ReadTxns         int
	WriteTxns        int

	// SimTime is the simulated duration in seconds.
	SimTime float64

	// Utilizations.
	CPUUtil      float64
	MeanDiskUtil float64
	LogDiskUtil  float64

	// AdaptiveSwitches counts run-time clustering-policy changes when the
	// adaptive extension is enabled.
	AdaptiveSwitches int

	// KindResponse maps query-kind name to its mean response time, for
	// per-operation analysis (checkout vs simple lookup vs insert ...).
	KindResponse map[string]float64

	// RatioChangesIgnored counts phased read/write-ratio changes the
	// workload source refused to honor (e.g. a read-only OCB stream asked
	// to start writing mid-run).
	RatioChangesIgnored int
}

func (e *Engine) results() Results {
	m := &e.metrics
	r := Results{
		ResultCore:          e.report(),
		MeanResponse:        m.respAll.Mean(),
		ReadResponse:        m.respRead.Mean(),
		WriteResponse:       m.respWrite.Mean(),
		P99WriteResponse:    float64(m.writeHist.Quantile(0.99)) / 1e6,
		ReadTxns:            m.respRead.N(),
		WriteTxns:           m.respWrite.N(),
		SimTime:             e.sim.Now(),
		CPUUtil:             e.cpu.Utilization(),
		LogDiskUtil:         e.logDisk.Utilization(),
		RatioChangesIgnored: m.ratioIgnored,
		KindResponse:        make(map[string]float64),
	}
	r.Completed = m.respAll.N()
	r.IOCounts = m.ops
	if r.SimTime > 0 {
		r.Throughput = float64(r.Completed) / r.SimTime
	}
	du := 0.0
	for _, d := range e.disks {
		du += d.Utilization()
	}
	if len(e.disks) > 0 {
		r.MeanDiskUtil = du / float64(len(e.disks))
	}
	if e.adapt != nil {
		r.AdaptiveSwitches = e.adapt.Switches
	}
	if st, ok := e.access.(*stack); ok {
		r.LogicalDigest = st.digest
		r.ConservationViolations = st.conserve
	}
	for k := workload.QueryKind(0); k < workload.NumQueryKinds; k++ {
		if n := m.perKindResp[k].N(); n > 0 {
			r.KindResponse[k.String()] = m.perKindResp[k].Mean()
			r.KindCount[k.String()] = n
			r.KindIOs[k.String()] = m.perKindIOs[k]
			r.KindHits[k.String()] = m.perKindHits[k]
		}
	}
	return r
}

// finalStateDigest folds every live object — identity, type, size,
// configuration references, inheritance link — in ID order into an
// FNV-style accumulator. ID order is policy-independent, so any two runs
// that applied the same logical writes agree on this digest no matter how
// objects were placed, buffered, or clustered.
func finalStateDigest(g *model.Graph) uint64 {
	h := uint64(0xcbf29ce484222325)
	fold := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	g.ForEachObject(func(o *model.Object) {
		fold(uint64(o.ID))
		fold(uint64(o.Type))
		fold(uint64(o.Size))
		fold(uint64(o.InheritsFrom))
		fold(uint64(len(o.Components())))
		for _, c := range o.Components() {
			fold(uint64(c))
		}
	})
	return h
}

// String renders a one-line summary.
func (r Results) String() string {
	return fmt.Sprintf("%s: resp=%.4fs (r=%.4f w=%.4f) hit=%.3f phys(r/w/log)=%d/%d/%d txns=%d",
		r.Config.Label(), r.MeanResponse, r.ReadResponse, r.WriteResponse,
		r.HitRatio, r.PhysReads, r.PhysWrites, r.LogIOs, r.Completed)
}
