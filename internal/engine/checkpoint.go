package engine

import (
	"errors"
	"fmt"
	"io"

	"oodb/internal/buffer"
	"oodb/internal/checkpoint"
	"oodb/internal/core"
	"oodb/internal/lock"
	"oodb/internal/model"
	"oodb/internal/ocb"
	"oodb/internal/sim"
	"oodb/internal/stats"
	"oodb/internal/storage"
	"oodb/internal/txlog"
	"oodb/internal/workload"
)

// Checkpoint/restore. The engine checkpoints only at *quiescent points*:
// moments where every user is in think state — no transaction holds locks,
// logs, or station slots, and the only events on the calendar are user
// think-wakes. At such a point every layer's state is plain data, and each
// pending event is fully described by (user, fire time, sequence number).
// An uninterrupted run passes through the identical state at the same
// point, so a restored run's continuation is event-for-event, draw-for-draw
// identical — the byte-identity gate the figure tests assert.

// CheckpointVersion is the checkpoint file format version. It moves whenever
// the serialized state changes shape or Config gains or loses a field (the
// fingerprint is the %+v of Config, so either changes every fingerprint);
// version 7 dropped nine Config fields and the reservoir half of
// stats.TallyState. Older checkpoints fail with the typed
// checkpoint.ErrVersion rather than a misleading fingerprint mismatch.
const CheckpointVersion = 7

// checkpointKind tags engine checkpoints inside the shared envelope.
const checkpointKind = "engine-checkpoint"

// ErrConfigMismatch means a checkpoint's embedded fingerprint does not match
// the configuration it is being restored under. Callers distinguish it (and
// checkpoint.ErrVersion) from I/O failures to decide whether a stale file
// can simply be discarded and regenerated.
var ErrConfigMismatch = errors.New("engine: checkpoint was taken under a different configuration")

// UserState is one user's think/submit position: how many transactions
// remain in the current session and the pending think-wake event, if any.
type UserState struct {
	Remaining int
	NextWake  sim.Time
	WakeSeq   uint64
	Waiting   bool
}

// MetricsState is the serializable state of the in-flight measurement
// accumulators.
type MetricsState struct {
	RespAll   stats.TallyState
	RespRead  stats.TallyState
	RespWrite stats.TallyState

	Ops          IOCounts
	PerKindCount [workload.NumQueryKinds]int
	PerKindIOs   [workload.NumQueryKinds]int
	PerKindResp  [workload.NumQueryKinds]stats.TallyState

	Warmup       int
	Skipped      int
	RatioIgnored int
}

func (m *Metrics) snapshot() MetricsState {
	st := MetricsState{
		RespAll:      m.respAll.Snapshot(),
		RespRead:     m.respRead.Snapshot(),
		RespWrite:    m.respWrite.Snapshot(),
		Ops:          m.ops,
		Warmup:       m.warmup,
		Skipped:      m.skipped,
		RatioIgnored: m.ratioIgnored,
	}
	st.PerKindCount = m.perKindCount
	st.PerKindIOs = m.perKindIOs
	for k := range m.perKindResp {
		st.PerKindResp[k] = m.perKindResp[k].Snapshot()
	}
	return st
}

func (m *Metrics) restore(st MetricsState) error {
	if err := m.respAll.Restore(st.RespAll); err != nil {
		return err
	}
	if err := m.respRead.Restore(st.RespRead); err != nil {
		return err
	}
	if err := m.respWrite.Restore(st.RespWrite); err != nil {
		return err
	}
	m.ops = st.Ops
	m.perKindCount = st.PerKindCount
	m.perKindIOs = st.PerKindIOs
	for k := range m.perKindResp {
		if err := m.perKindResp[k].Restore(st.PerKindResp[k]); err != nil {
			return err
		}
	}
	m.warmup = st.Warmup
	m.skipped = st.Skipped
	m.ratioIgnored = st.RatioIgnored
	return nil
}

// AdaptiveSnapshot is the serializable state of the phased-workload /
// adaptive-clustering observer.
type AdaptiveSnapshot struct {
	History  []bool
	Pos      int
	Filled   int
	Writes   int
	Switches int
}

func (a *adaptiveState) snapshot() AdaptiveSnapshot {
	return AdaptiveSnapshot{
		History:  append([]bool(nil), a.history...),
		Pos:      a.pos,
		Filled:   a.filled,
		Writes:   a.writes,
		Switches: a.Switches,
	}
}

func (a *adaptiveState) restore(s AdaptiveSnapshot) error {
	if len(s.History) != a.window {
		return fmt.Errorf("engine: adaptive snapshot window %d, configured %d", len(s.History), a.window)
	}
	a.history = append(a.history[:0], s.History...)
	a.pos = s.Pos
	a.filled = s.Filled
	a.writes = s.Writes
	a.Switches = s.Switches
	return nil
}

// Checkpoint is the complete serializable state of an engine at a quiescent
// point: every layer's snapshot plus the engine's own counters. Restoring
// it into an engine built from the same Config resumes the run with
// byte-identical results.
type Checkpoint struct {
	Fingerprint string

	Sim     sim.State
	CPU     sim.StationState
	Disks   []sim.StationState
	LogDisk sim.StationState
	Users   []UserState

	Graph    model.GraphState
	Store    storage.State
	Pool     buffer.PoolState
	Cluster  core.ClusterState
	Prefetch core.PrefetchStats
	Log      txlog.State

	LockingOn bool
	Locks     lock.State

	// Workload tags which generator state is populated: "" or WorkloadOCT
	// means Gen, WorkloadOCB means OCBGen.
	Workload string
	Gen      workload.GeneratorState
	OCBGen   ocb.GeneratorState
	Metrics  MetricsState

	// Digest is the access layer's logical-read digest at the quiescent
	// point; Conserve is its conservation-violation count (zero on a
	// correct stack).
	Digest   uint64
	Conserve int

	HasAdapt bool
	Adapt    AdaptiveSnapshot

	NameSeq   int
	TxnSeq    int
	Issued    int
	Completed int
	Stopped   bool
}

// prefetchSnapshotter is the state seam a PrefetchStrategy must provide to
// be checkpointable (checkpoint.Snapshotter[core.PrefetchStats] with the
// error-returning Restore half).
type prefetchSnapshotter interface {
	Snapshot() core.PrefetchStats
	Restore(core.PrefetchStats) error
}

var _ prefetchSnapshotter = (*core.Prefetcher)(nil)
var _ checkpoint.Snapshotter[sim.State] = (*sim.Sim)(nil)
var _ checkpoint.Snapshotter[model.GraphState] = (*model.Graph)(nil)
var _ checkpoint.Snapshotter[workload.GeneratorState] = (*workload.Generator)(nil)
var _ checkpoint.Snapshotter[ocb.GeneratorState] = (*ocb.Generator)(nil)

// Completed returns the number of completed transactions (including
// warmup), the counter checkpoint positions are expressed in.
func (e *Engine) Completed() int { return e.completed }

// quiescent reports whether the engine is at a checkpointable moment: no
// transaction is in flight anywhere in the stack, and every pending
// calendar event is a user think-wake the engine can describe.
func (e *Engine) quiescent() bool {
	if !e.started {
		return false
	}
	if e.log.Open() != 0 {
		return false
	}
	if e.locks != nil && e.locks.Locked() != 0 {
		return false
	}
	if e.cpu.Busy() > 0 || e.cpu.QueueLen() > 0 {
		return false
	}
	for _, d := range e.disks {
		if d.Busy() > 0 || d.QueueLen() > 0 {
			return false
		}
	}
	if e.logDisk.Busy() > 0 || e.logDisk.QueueLen() > 0 {
		return false
	}
	waiting := 0
	for i := range e.users {
		if e.users[i].Waiting {
			waiting++
		}
	}
	return e.sim.Pending() == waiting
}

// RunToCheckpoint runs the simulation until at least k transactions have
// completed AND the engine reaches the next quiescent point, then returns a
// checkpoint. The engine remains live: calling Run afterwards continues the
// simulation to the end exactly as if it had never been snapshotted.
// Recording and replaying runs cannot be checkpointed — the trace stream's
// position is not part of the engine's state.
func (e *Engine) RunToCheckpoint(k int) (*Checkpoint, error) {
	if e.record != nil || e.replay != nil {
		return nil, fmt.Errorf("engine: cannot checkpoint a recording or replaying run")
	}
	if k <= 0 {
		return nil, fmt.Errorf("engine: checkpoint position must be positive, got %d", k)
	}
	e.start()
	for e.metrics.err == nil && (e.completed < k || !e.quiescent()) {
		if !e.sim.Step() {
			break
		}
	}
	if e.metrics.err != nil {
		return nil, e.metrics.err
	}
	if e.completed < k {
		return nil, fmt.Errorf("engine: run drained after %d completions, before checkpoint at %d", e.completed, k)
	}
	return e.Snapshot()
}

// Snapshot captures the engine's complete state. The engine must be at a
// quiescent point (see RunToCheckpoint).
func (e *Engine) Snapshot() (*Checkpoint, error) {
	if !e.quiescent() {
		return nil, fmt.Errorf("engine: snapshot requires a quiescent engine (transactions in flight)")
	}
	st, ok := e.access.(*stack)
	if !ok {
		return nil, fmt.Errorf("engine: access layer %T does not support checkpointing", e.access)
	}
	clust, ok := e.clust.(core.StatefulClusterStrategy)
	if !ok {
		return nil, fmt.Errorf("engine: cluster strategy %s does not support checkpointing", e.clust.Name())
	}
	pf, ok := st.pf.(prefetchSnapshotter)
	if !ok {
		return nil, fmt.Errorf("engine: prefetch strategy %T does not support checkpointing", st.pf)
	}
	sm, ok := e.store.(*storage.Manager)
	if !ok {
		return nil, fmt.Errorf("engine: storage backend %T does not support checkpointing", e.store)
	}
	pool, err := e.pool.Snapshot()
	if err != nil {
		return nil, err
	}
	logSt, err := e.log.Snapshot()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Fingerprint: e.cfg.Fingerprint(),
		Sim:         e.sim.Snapshot(),
		CPU:         e.cpu.Snapshot(),
		LogDisk:     e.logDisk.Snapshot(),
		Users:       append([]UserState(nil), e.users...),
		Graph:       e.graph.Snapshot(),
		Store:       sm.Snapshot(),
		Pool:        pool,
		Cluster:     clust.Snapshot(),
		Prefetch:    pf.Snapshot(),
		Log:         logSt,
		Metrics:     e.metrics.snapshot(),
		Digest:      st.digest,
		Conserve:    st.conserve,
		NameSeq:     st.nameSeq,
		TxnSeq:      e.txnSeq,
		Issued:      e.issued,
		Completed:   e.completed,
		Stopped:     e.stopped,
	}
	switch g := e.gen.(type) {
	case *workload.Generator:
		ck.Gen = g.Snapshot()
	case *ocb.Generator:
		ck.Workload = WorkloadOCB
		ck.OCBGen = g.Snapshot()
	default:
		return nil, fmt.Errorf("engine: workload source %T does not support checkpointing", e.gen)
	}
	for _, d := range e.disks {
		ck.Disks = append(ck.Disks, d.Snapshot())
	}
	if e.locks != nil {
		lockSt, err := e.locks.Snapshot()
		if err != nil {
			return nil, err
		}
		ck.LockingOn = true
		ck.Locks = lockSt
	}
	if e.adapt != nil {
		ck.HasAdapt = true
		ck.Adapt = e.adapt.snapshot()
	}
	return ck, nil
}

// Resume rebuilds an engine from cfg — regenerating the immutable parts
// (type lattice, initial database, component wiring) deterministically —
// and overlays the checkpoint's state. cfg must be the configuration the
// checkpoint was taken under; the embedded fingerprint enforces it.
func Resume(cfg Config, ck *Checkpoint) (*Engine, error) {
	if cfg.Record != nil || cfg.Replay != nil {
		return nil, fmt.Errorf("engine: resume with trace record/replay is not supported")
	}
	if ck.Fingerprint != cfg.Fingerprint() {
		return nil, ErrConfigMismatch
	}
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restore(ck); err != nil {
		return nil, fmt.Errorf("engine: restoring checkpoint: %w", err)
	}
	return e, nil
}

// restore overlays a checkpoint onto a freshly built engine. Layer order
// matters: the graph first (storage placement validates object existence),
// then storage, then everything above it; the kernel last, because
// restoring it clears the calendar that re-scheduling the user wakes
// repopulates.
func (e *Engine) restore(ck *Checkpoint) error {
	if len(ck.Users) != e.cfg.Users {
		return fmt.Errorf("checkpoint has %d users, config has %d", len(ck.Users), e.cfg.Users)
	}
	if len(ck.Disks) != len(e.disks) {
		return fmt.Errorf("checkpoint has %d disks, config has %d", len(ck.Disks), len(e.disks))
	}
	if ck.LockingOn != (e.locks != nil) {
		return fmt.Errorf("checkpoint locking=%v, config locking=%v", ck.LockingOn, e.locks != nil)
	}
	if ck.HasAdapt != (e.adapt != nil) {
		return fmt.Errorf("checkpoint adaptive=%v, config adaptive=%v", ck.HasAdapt, e.adapt != nil)
	}
	st, ok := e.access.(*stack)
	if !ok {
		return fmt.Errorf("access layer %T does not support checkpointing", e.access)
	}
	clust, ok := e.clust.(core.StatefulClusterStrategy)
	if !ok {
		return fmt.Errorf("cluster strategy %s does not support checkpointing", e.clust.Name())
	}
	pf, ok := st.pf.(prefetchSnapshotter)
	if !ok {
		return fmt.Errorf("prefetch strategy %T does not support checkpointing", st.pf)
	}
	sm, ok := e.store.(*storage.Manager)
	if !ok {
		return fmt.Errorf("storage backend %T does not support checkpointing", e.store)
	}
	if err := e.graph.Restore(ck.Graph); err != nil {
		return err
	}
	if err := sm.Restore(ck.Store); err != nil {
		return err
	}
	if err := e.pool.Restore(ck.Pool); err != nil {
		return err
	}
	if err := clust.Restore(ck.Cluster); err != nil {
		return err
	}
	if err := pf.Restore(ck.Prefetch); err != nil {
		return err
	}
	if err := e.log.Restore(ck.Log); err != nil {
		return err
	}
	if e.locks != nil {
		if err := e.locks.Restore(ck.Locks); err != nil {
			return err
		}
	}
	switch g := e.gen.(type) {
	case *workload.Generator:
		if ck.Workload == WorkloadOCB {
			return fmt.Errorf("checkpoint carries OCB generator state, engine runs the OCT workload")
		}
		if err := g.Restore(ck.Gen); err != nil {
			return err
		}
	case *ocb.Generator:
		if ck.Workload != WorkloadOCB {
			return fmt.Errorf("checkpoint carries OCT generator state, engine runs the OCB workload")
		}
		if err := g.Restore(ck.OCBGen); err != nil {
			return err
		}
	default:
		return fmt.Errorf("workload source %T does not support checkpointing", e.gen)
	}
	st.digest = ck.Digest
	st.conserve = ck.Conserve
	if err := e.metrics.restore(ck.Metrics); err != nil {
		return err
	}
	if e.adapt != nil {
		if err := e.adapt.restore(ck.Adapt); err != nil {
			return err
		}
	}
	st.nameSeq = ck.NameSeq
	e.txnSeq = ck.TxnSeq
	e.issued = ck.Issued
	e.completed = ck.Completed
	e.stopped = ck.Stopped

	// Kernel last: Restore clears the calendar and rewinds every named
	// stream in place, then the recorded user wakes are re-created with
	// their original fire times and sequence numbers.
	if err := e.sim.Restore(ck.Sim); err != nil {
		return err
	}
	if err := e.cpu.Restore(ck.CPU); err != nil {
		return err
	}
	for i, d := range e.disks {
		if err := d.Restore(ck.Disks[i]); err != nil {
			return err
		}
	}
	if err := e.logDisk.Restore(ck.LogDisk); err != nil {
		return err
	}
	e.started = true
	e.think = e.sim.Stream("think")
	e.users = append([]UserState(nil), ck.Users...)
	for u := range e.users {
		if e.users[u].Waiting {
			user := u
			e.sim.ScheduleRestored(e.users[u].NextWake, e.users[u].WakeSeq, func() { e.wakeUser(user) })
		}
	}
	return nil
}

// WriteCheckpoint serializes a checkpoint in the versioned envelope format.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	return checkpoint.Write(w, checkpointKind, CheckpointVersion, ck)
}

// ReadCheckpoint deserializes a checkpoint, mapping malformed input onto
// the checkpoint package's typed errors.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := checkpoint.Read(r, checkpointKind, CheckpointVersion, ck); err != nil {
		return nil, err
	}
	return ck, nil
}
