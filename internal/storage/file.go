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

// PageIO is the physical page-transfer seam the buffer pool drives: the
// pool calls WritePage when it evicts a dirty frame and ReadPage when an
// access misses. The default in-memory wiring installs no PageIO and the
// pool only counts; the file backend implements it against the page file.
type PageIO interface {
	// ReadPage fetches page pg's frame from stable storage, validating its
	// checksum. Reading a page that was never written back is not an error.
	ReadPage(pg PageID) error
	// WritePage writes page pg's current contents to stable storage.
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
// in-memory Backend surface plus physical page I/O, durable transaction
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
	// Checkpoint records a durable point: a checkpoint record, then both
	// files forced to stable storage.
	Checkpoint() error
	// Close checkpoints and releases the underlying files. Idempotent.
	Close() error
	// Committed returns the number of committed run transactions.
	Committed() int
	// DurableStats snapshots the physical I/O counters.
	DurableStats() DurableStats
}

// DurableStats counts the physical work a durable backend performed.
type DurableStats struct {
	// WALAppends counts write(2) calls to the write-ahead log, not
	// records: one per run transaction (at its commit or abort), one per
	// 64 KiB of the construction bootstrap.
	WALAppends int64
	WALSyncs   int64 // fsyncs of the log file
	WALBytes   int64 // bytes written to the log
	PageReads  int64 // page frames read from the page file
	PageWrites int64 // page frames written to the page file
	Committed  int64 // committed run transactions
}

// File names inside a backend data directory.
const (
	// WALFileName is the write-ahead log inside a data directory.
	WALFileName = "wal.log"
	// PageFileName is the page-frame file inside a data directory.
	PageFileName = "pages.db"
)

// FileBackend is the file-backed storage backend: the embedded in-memory
// Manager remains the authoritative object->page map (clustering probes
// pages whether or not they are buffer-resident), while every mutation is
// journaled to a write-ahead log and the buffer pool's evictions and
// misses perform real frame I/O against a page file. The WAL is the
// recovery authority; the page file is derived, write-behind state.
//
// WAL appends collect in the log's in-memory tail and reach the file in
// one write at each transaction boundary, before the frame of a page they
// touch is written, and at close (see walWriter). Appends are serialized by
// mu. The engines uphold that guarantee structurally — write transactions
// are fully serialized (the concurrent
// engine holds the structure lock exclusively from LogBegin through
// LogCommit) — which is also what makes the single current-transaction
// register sound: records of distinct transactions never interleave in the
// log, and commit records appear in serialization order. The fsync is not
// under that lock: WaitDurable syncs with neither mu nor the engine's guard
// held, beside later transactions' appends, and an fsync covers every byte
// written before it — so whatever a crash leaves on disk is a prefix of the
// commit order. The first failed write or sync poisons the log (see
// walWriter.failed): every later journal, boundary, page write and
// WaitDurable call returns that error. Since a mutation's record may wait
// in the tail, that first error usually surfaces at the boundary after it.
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

	ioMu  sync.Mutex // serializes page-file I/O (shared frame scratch)
	pages *pageFile

	commits    atomic.Int64 // committed run transactions
	pageReads  atomic.Int64
	pageWrites atomic.Int64

	closed bool
}

var _ Durable = (*FileBackend)(nil)

// NewFileBackend opens a file backend over m in opt.Dir, creating the WAL
// and page file. A directory that already holds a non-empty WAL is refused:
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
	pf, err := openPageFile(filepath.Join(opt.Dir, PageFileName), m.PageSize())
	if err == nil {
		// A fresh run must not inherit stale frames from a prior page file
		// (openPageFile cannot truncate: RecoverDir reuses it to scrub).
		err = pf.f.Truncate(0)
	}
	if err != nil {
		wal.f.Close() // errscan:ok best-effort cleanup; the open error is reported
		return nil, err
	}
	return &FileBackend{
		Manager: m,
		dir:     opt.Dir,
		policy:  opt.Fsync,
		wal:     wal,
		pages:   pf,
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
	return fb.journal(WALRecord{Kind: WALPlace, Obj: obj, Page: pg, Size: fb.graph.Object(obj).Size})
}

// Remove applies the in-memory removal, then journals it.
func (fb *FileBackend) Remove(obj model.ObjectID) error {
	pg := fb.PageOf(obj)
	if err := fb.Manager.Remove(obj); err != nil {
		return err
	}
	size := 0
	if o := fb.graph.Object(obj); o != nil {
		size = o.Size
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
	return fb.journal(WALRecord{Kind: WALMove, Obj: obj, Page: from, To: pg, Size: fb.graph.Object(obj).Size})
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
// current digest, then both files forced to stable storage.
func (fb *FileBackend) Checkpoint() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if err := fb.wal.seal(WALRecord{Kind: WALCheckpoint, Digest: fb.StateDigest()}); err != nil {
		return err
	}
	if err := fb.wal.sync(); err != nil {
		return err
	}
	fb.ioMu.Lock()
	defer fb.ioMu.Unlock()
	return fb.pages.sync()
}

// Close checkpoints and releases both files. Idempotent: a second Close is
// a no-op, so engines can close defensively. The checkpoint record is
// skipped when the in-memory state is not the last committed one — a
// failed construction, or a transaction that aborted with its mutations
// still applied (nothing rolls them back) — because recovery checks the
// replayed state against the last digest in the log.
func (fb *FileBackend) Close() error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return nil
	}
	fb.closed = true
	var err error
	if fb.StateDigest() == fb.committed {
		err = fb.wal.append(WALRecord{Kind: WALCheckpoint, Digest: fb.committed})
	}
	err = errors.Join(err, fb.wal.close())
	fb.mu.Unlock()
	fb.ioMu.Lock()
	defer fb.ioMu.Unlock()
	return errors.Join(err, fb.pages.sync(), fb.pages.close())
}

// ReadPage fetches page pg's frame from the page file, validating its
// checksum. A frame that was never written back reads as absent, not as an
// error — the in-memory manager is authoritative and the pool only needs
// the physical transfer performed. A read the file fails is an error.
func (fb *FileBackend) ReadPage(pg PageID) error {
	fb.ioMu.Lock()
	_, err := fb.pages.readPage(pg)
	fb.ioMu.Unlock()
	if err != nil {
		return err
	}
	fb.pageReads.Add(1)
	return nil
}

// WritePage writes page pg's current contents to its frame in the page
// file. The pool calls this on dirty eviction and during FlushDirty. If the
// log's tail holds a record of the page, the tail is written first, so the
// records that dirtied the page are on the log file before its frame is on
// the page file (journal before dirty).
func (fb *FileBackend) WritePage(pg PageID) error {
	p := fb.Page(pg)
	if p == nil {
		return fmt.Errorf("storage: %w: page %d", ErrNoSuchPage, pg)
	}
	fb.mu.Lock()
	err := fb.wal.flushPage(pg)
	fb.mu.Unlock()
	if err != nil {
		return err
	}
	fb.ioMu.Lock()
	err = fb.pages.writePage(p, fb.sizeOf)
	fb.ioMu.Unlock()
	if err != nil {
		return err
	}
	fb.pageWrites.Add(1)
	return nil
}

func (fb *FileBackend) sizeOf(obj model.ObjectID) int {
	if o := fb.graph.Object(obj); o != nil {
		return o.Size
	}
	return 0
}

// Committed returns the number of committed run transactions.
func (fb *FileBackend) Committed() int { return int(fb.commits.Load()) }

// DurableStats snapshots the physical I/O counters.
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
