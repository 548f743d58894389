package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"oodb/internal/model"
)

// PageIO is the page-transfer seam the buffer pool drives: the pool calls
// WritePage when it evicts a dirty frame and ReadPage when an access
// misses. The default in-memory wiring installs no PageIO and the pool only
// counts; the file backend counts the transfers in its DurableStats.
type PageIO interface {
	// ReadPage transfers page pg in from stable storage.
	ReadPage(pg PageID) error
	// WritePage transfers page pg's current contents out to stable storage.
	WritePage(pg PageID) error
}

// TxnLog is the transaction-boundary seam the recovery log drives: the
// txlog manager forwards begin/commit/abort so transaction boundaries
// become durable WAL records. Records between boundaries may wait in the
// log's memory, so a failed write can surface at the next boundary rather
// than at the mutation that journaled it.
type TxnLog interface {
	// LogBegin opens transaction txn in the durable log.
	LogBegin(txn int) error
	// LogCommit appends transaction txn's commit record and writes the
	// transaction's records to the log file. The caller still holds
	// whatever serializes its writes, so commit records land in
	// serialization order; the record is written but not yet on stable
	// storage.
	LogCommit(txn int) error
	// WaitDurable returns once the commit the caller last appended is as
	// durable as the fsync policy makes it. It is called with nothing held
	// and may run beside other transactions' appends; a transaction is
	// acknowledged only after it returns nil.
	WaitDurable() error
	// LogAbort abandons transaction txn, writing its records to the log
	// file; its mutations will not replay.
	LogAbort(txn int) error
}

// Durable is the full contract of a persistent storage backend: the
// in-memory Backend surface plus page transfers, durable transaction
// boundaries, and lifecycle. The engine discovers it by type assertion on
// the Backend it constructed — the same pattern as the buffer layer's
// PolicyTuner — so in-memory wiring pays nothing.
type Durable interface {
	Backend
	PageIO
	TxnLog
	// CommitBootstrap durably commits the database-construction pseudo-
	// transaction (WAL txn 0) once initial placement is complete.
	CommitBootstrap() error
	// Checkpoint records a durable point: a checkpoint record, then the
	// log forced to stable storage.
	Checkpoint() error
	// Close checkpoints and releases the log. Idempotent.
	Close() error
	// Committed returns the number of committed run transactions.
	Committed() int
	// DurableStats snapshots the log and page-transfer counters.
	DurableStats() DurableStats
}

// DurableStats counts a durable backend's log I/O and the page transfers
// the pool asked of it.
type DurableStats struct {
	// WALAppends counts write(2) calls to the write-ahead log, not
	// records: one per run transaction (at its commit or abort), one per
	// 64 KiB of the construction bootstrap.
	WALAppends int64
	WALSyncs   int64 // fsyncs of the log file
	WALBytes   int64 // bytes written to the log
	PageReads  int64 // pages the pool faulted in
	PageWrites int64 // dirty pages the pool wrote back
	Committed  int64 // committed run transactions
}

// WALFileName is the write-ahead log, the only file in a data directory.
const WALFileName = "wal.log"

// FileBackend is the file-backed storage backend: the embedded in-memory
// Manager remains the authoritative object->page map (clustering probes
// pages whether or not they are buffer-resident), while every mutation is
// journaled to a write-ahead log, the recovery authority and the
// directory's only file. The buffer pool's misses and dirty evictions are
// page transfers the backend counts (ReadPage, WritePage) without touching
// a file: the paper and the figures judge placement by counted page I/Os.
//
// WAL appends collect in the log's in-memory tail and reach the file in
// one write at each transaction boundary and at close (see walWriter).
// Appends are serialized by mu. The engines uphold that guarantee
// structurally — write transactions are fully serialized (the concurrent
// engine holds the structure lock exclusively from LogBegin through
// LogCommit) — which is also what makes the single current-transaction
// register sound: records of distinct transactions never interleave in the
// log, and commit records appear in serialization order. The fsync is not
// under that lock: WaitDurable syncs with neither mu nor the engine's guard
// held, beside later transactions' appends, and an fsync covers every byte
// written before it — so whatever a crash leaves on disk is a prefix of the
// commit order. The first failed write or sync poisons the log (see
// walWriter.failed): every later journal, boundary and WaitDurable call
// returns that error. Since a mutation's record may wait in the tail, that
// first error usually surfaces at the boundary after it.
type FileBackend struct {
	*Manager

	dir    string
	policy FsyncPolicy

	mu  sync.Mutex // serializes WAL appends, flushes and commit bookkeeping
	wal *walWriter
	cur uint64 // WAL txn attributed to in-flight mutations; 0 = bootstrap
	// committed is the digest the last commit record carried: the newest
	// state replaying the log reproduces.
	committed uint64
	// syncDue is set by the FsyncInterval commit whose ordinal completes a
	// period and cleared by the WaitDurable that performs its sync.
	syncDue atomic.Bool

	commits    atomic.Int64 // committed run transactions
	pageReads  atomic.Int64
	pageWrites atomic.Int64

	closed bool
}

var _ Durable = (*FileBackend)(nil)

// NewFileBackend opens a file backend over m in opt.Dir, creating the WAL.
// A directory that already holds a non-empty WAL is refused:
// recover it with RecoverDir (the engine never implicitly reuses state) or
// point the run at a fresh directory.
func NewFileBackend(m *Manager, opt BackendOptions) (*FileBackend, error) {
	if opt.Dir == "" {
		return nil, errors.New("storage: file backend requires a data directory")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, err
	}
	walPath := filepath.Join(opt.Dir, WALFileName)
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > 0 {
		return nil, fmt.Errorf("storage: %s already holds a WAL; recover it with RecoverDir or point the run at a fresh directory", opt.Dir)
	}
	wal, err := newWALWriter(walPath, m.PageSize())
	if err != nil {
		return nil, err
	}
	return &FileBackend{
		Manager: m,
		dir:     opt.Dir,
		policy:  opt.Fsync,
		wal:     wal,
	}, nil
}

// Dir returns the backend's data directory.
func (fb *FileBackend) Dir() string { return fb.dir }

// journal appends one mutation record attributed to the current WAL
// transaction. A journaling failure is fatal to the run: the in-memory
// mutation has already been applied, and continuing would let the log
// diverge from the state it must be able to reproduce.
func (fb *FileBackend) journal(rec WALRecord) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	rec.Txn = fb.cur
	return fb.wal.append(rec)
}

// Place applies the in-memory placement, then journals it.
func (fb *FileBackend) Place(obj model.ObjectID, pg PageID) error {
	if err := fb.Manager.Place(obj, pg); err != nil {
		return err
	}
	return fb.journal(WALRecord{Kind: WALPlace, Obj: obj, Page: pg, Size: int(fb.graph.Object(obj).Size)})
}

// Remove applies the in-memory removal, then journals it.
func (fb *FileBackend) Remove(obj model.ObjectID) error {
	pg := fb.PageOf(obj)
	if err := fb.Manager.Remove(obj); err != nil {
		return err
	}
	size := 0
	if o := fb.graph.Object(obj); o != nil {
		size = int(o.Size)
	}
	return fb.journal(WALRecord{Kind: WALRemove, Obj: obj, Page: pg, Size: size})
}

// Move applies the in-memory relocation, then journals it as one record.
// Manager.Move runs Remove+Place on the Manager receiver directly, so the
// two halves are not separately journaled.
func (fb *FileBackend) Move(obj model.ObjectID, pg PageID) error {
	from := fb.PageOf(obj)
	if err := fb.Manager.Move(obj, pg); err != nil {
		return err
	}
	if from == pg {
		return nil // no-op move; nothing happened, nothing to journal
	}
	return fb.journal(WALRecord{Kind: WALMove, Obj: obj, Page: from, To: pg, Size: int(fb.graph.Object(obj).Size)})
}

// LogBegin opens run transaction txn in the WAL and attributes subsequent
// mutations to it. Engine transaction IDs shift up by one in the log; WAL
// txn 0 is reserved for the construction bootstrap.
func (fb *FileBackend) LogBegin(txn int) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.cur = uint64(txn) + 1
	return fb.wal.append(WALRecord{Kind: WALBegin, Txn: fb.cur})
}

// LogCommit appends the commit record, carrying the placement digest the
// replayed state must reproduce, and writes the transaction's records to
// the log file. It does not sync: WaitDurable does, once the caller has let
// go of what serializes its writes.
func (fb *FileBackend) LogCommit(txn int) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.committed = fb.StateDigest()
	err := fb.wal.seal(WALRecord{Kind: WALCommit, Txn: uint64(txn) + 1, Digest: fb.committed})
	if err != nil {
		return err
	}
	if fb.commits.Add(1)%fsyncEveryCommits == 0 && fb.policy == FsyncInterval {
		fb.syncDue.Store(true)
	}
	return nil
}

// WaitDurable performs the fsync policy's sync for the commit the caller
// just appended: one per commit under FsyncAlways, the period-completing
// commit's under FsyncInterval, none under FsyncNever. It takes no lock and
// leaves the log's tail alone: LogCommit already wrote the commit.
func (fb *FileBackend) WaitDurable() error {
	if fb.policy == FsyncAlways || fb.policy == FsyncInterval && fb.syncDue.CompareAndSwap(true, false) {
		return fb.wal.sync()
	}
	return nil
}

// LogAbort appends the abort record and writes the tail; the
// transaction's mutation records are dead weight recovery will skip.
func (fb *FileBackend) LogAbort(txn int) error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.wal.seal(WALRecord{Kind: WALAbort, Txn: uint64(txn) + 1})
}

// CommitBootstrap durably commits the construction pseudo-transaction
// (WAL txn 0). Always synced: the initial placement is the baseline every
// later transaction's records build on.
func (fb *FileBackend) CommitBootstrap() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.committed = fb.StateDigest()
	if err := fb.wal.seal(WALRecord{Kind: WALCommit, Txn: 0, Digest: fb.committed}); err != nil {
		return err
	}
	return fb.wal.sync()
}

// Checkpoint records a durable point: a checkpoint record carrying the
// current digest, then the log forced to stable storage.
func (fb *FileBackend) Checkpoint() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if err := fb.wal.seal(WALRecord{Kind: WALCheckpoint, Digest: fb.StateDigest()}); err != nil {
		return err
	}
	return fb.wal.sync()
}

// Close checkpoints and releases the log. Idempotent: a second Close is
// a no-op, so engines can close defensively. The checkpoint record is
// skipped when the in-memory state is not the last committed one — a
// failed construction, or a transaction that aborted with its mutations
// still applied (nothing rolls them back) — because recovery checks the
// replayed state against the last digest in the log.
func (fb *FileBackend) Close() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed {
		return nil
	}
	fb.closed = true
	var err error
	if fb.StateDigest() == fb.committed {
		err = fb.wal.append(WALRecord{Kind: WALCheckpoint, Digest: fb.committed})
	}
	return errors.Join(err, fb.wal.close())
}

// ReadPage counts a page the pool faulted in. The in-memory manager is
// authoritative, so there is nothing to read.
func (fb *FileBackend) ReadPage(PageID) error {
	fb.pageReads.Add(1)
	return nil
}

// WritePage counts a dirty page the pool wrote back, on eviction or during
// FlushDirty. The WAL already holds every mutation that dirtied it.
func (fb *FileBackend) WritePage(pg PageID) error {
	if fb.Page(pg) == nil {
		return fmt.Errorf("storage: %w: page %d", ErrNoSuchPage, pg)
	}
	fb.pageWrites.Add(1)
	return nil
}

// Committed returns the number of committed run transactions.
func (fb *FileBackend) Committed() int { return int(fb.commits.Load()) }

// DurableStats snapshots the log and page-transfer counters.
func (fb *FileBackend) DurableStats() DurableStats {
	fb.mu.Lock()
	st := DurableStats{
		WALAppends: fb.wal.writes,
		WALSyncs:   fb.wal.syncs.Load(),
		WALBytes:   fb.wal.bytes,
	}
	fb.mu.Unlock()
	st.PageReads = fb.pageReads.Load()
	st.PageWrites = fb.pageWrites.Load()
	st.Committed = fb.commits.Load()
	return st
}
