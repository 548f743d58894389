package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"oodb/internal/model"
	"oodb/internal/obs"
)

// The write-ahead log is the file backend's recovery authority: every
// placement mutation and every transaction boundary appends one
// length-prefixed, CRC-checked record, and recovery replays the records of
// committed transactions in log order (the goDB-filestore shape: rebuild
// state by replaying committed transactions). The page file is derived
// state — it bears the physical page I/O but is never consulted during
// recovery.
//
// On-disk layout:
//
//	header:  "OODBWAL1" magic (8 bytes) + page size (uvarint)
//	record:  length (uint32 LE) | crc32c(payload) (uint32 LE) | payload
//	payload: kind (1 byte) + uvarint fields per kind (see WALRecord)
//
// A crash can tear the last record (short write) or lose the unsynced
// tail entirely; replay stops cleanly at the first record that is short,
// oversized, fails its CRC, or does not decode — everything before it is
// the valid prefix.

// FsyncPolicy selects when the write-ahead log is fsynced.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs the WAL on every transaction commit: a reported
	// commit is durable.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs every fsyncEveryCommits commits: bounded loss
	// window, a fraction of the sync cost.
	FsyncInterval
	// FsyncNever syncs only at checkpoint and close: a crash loses
	// whatever the OS had not written back.
	FsyncNever
)

// fsyncEveryCommits is the commit period of FsyncInterval.
const fsyncEveryCommits = 16

// ParseFsync resolves a policy name; "" means FsyncAlways.
func ParseFsync(s string) (FsyncPolicy, error) {
	switch s {
	case "", "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval, or never)", s)
}

// String names the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
}

// WALKind discriminates write-ahead-log records.
type WALKind uint8

const (
	// WALBegin opens a transaction.
	WALBegin WALKind = 1 + iota
	// WALPlace records Place(obj, page) of a size-byte object.
	WALPlace
	// WALRemove records Remove(obj) from page.
	WALRemove
	// WALMove records Move(obj) from Page to To.
	WALMove
	// WALCommit commits a transaction; Digest is the manager's placement
	// digest at commit time.
	WALCommit
	// WALAbort abandons a transaction; its mutation records are not
	// replayed.
	WALAbort
	// WALCheckpoint marks a durable point (bootstrap done, clean close);
	// Digest is the placement digest at that point.
	WALCheckpoint
)

// WALRecord is one decoded write-ahead-log record. Txn 0 is the
// construction bootstrap pseudo-transaction; run transactions are stored
// as engine txn + 1.
type WALRecord struct {
	Kind   WALKind
	Txn    uint64
	Obj    model.ObjectID
	Page   PageID // Place/Remove target page; Move source page
	To     PageID // Move destination page
	Size   int    // object size in bytes (Place/Remove/Move)
	Digest uint64 // placement digest (Commit/Checkpoint)
}

// walMagic and walVersion frame the log file header.
var walMagic = [8]byte{'O', 'O', 'D', 'B', 'W', 'A', 'L', '1'}

// maxWALRecord bounds a record's payload; anything larger is corruption
// (real records are a few dozen bytes).
const maxWALRecord = 1 << 16

// castagnoli is the CRC-32C table (the same polynomial storage engines
// conventionally use for log and page checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWALHeader reports a missing or foreign WAL header.
var ErrWALHeader = errors.New("storage: bad WAL header")

// walWriter appends framed records to the log file through one reusable
// scratch buffer, so the append path allocates nothing. Appends are
// serialized by the caller; sync may run beside them (a commit's flush
// overlaps the next transaction's appends), so what both touch is atomic.
type walWriter struct {
	f   *os.File
	buf []byte // frame under construction; reused across appends

	appends int64
	syncs   atomic.Int64
	bytes   int64

	// failed holds the first write or sync error. The log is fail-stop
	// from then on: Linux reports a lost write-back once and then clears
	// it, so a retry that "succeeds" proves nothing about what is on disk.
	failed atomic.Pointer[error]

	rec obs.Recorder // nil = uninstrumented
}

// fail poisons the log with err unless an earlier failure already has,
// and returns the failure every later append and sync will report.
func (w *walWriter) fail(err error) error {
	w.failed.CompareAndSwap(nil, &err)
	return *w.failed.Load()
}

// newWALWriter creates (truncating) the log file and writes the header.
func newWALWriter(path string, pageSize int, rec obs.Recorder) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := append([]byte(nil), walMagic[:]...)
	hdr = binary.AppendUvarint(hdr, uint64(pageSize))
	if _, err := f.Write(hdr); err != nil {
		f.Close() // errscan:ok best-effort cleanup after a failed header write
		return nil, err
	}
	return &walWriter{f: f, buf: make([]byte, 0, 64), rec: rec}, nil
}

// append frames and writes one record. Callers serialize.
func (w *walWriter) append(rec WALRecord) error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	b := append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
	b = append(b, byte(rec.Kind))
	b = binary.AppendUvarint(b, rec.Txn)
	switch rec.Kind {
	case WALPlace, WALRemove:
		b = binary.AppendUvarint(b, uint64(rec.Obj))
		b = binary.AppendUvarint(b, uint64(rec.Page))
		b = binary.AppendUvarint(b, uint64(rec.Size))
	case WALMove:
		b = binary.AppendUvarint(b, uint64(rec.Obj))
		b = binary.AppendUvarint(b, uint64(rec.Page))
		b = binary.AppendUvarint(b, uint64(rec.To))
		b = binary.AppendUvarint(b, uint64(rec.Size))
	case WALCommit, WALCheckpoint:
		b = binary.AppendUvarint(b, rec.Digest)
	}
	payload := b[8:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, castagnoli))
	w.buf = b[:0]
	if _, err := w.f.Write(b); err != nil {
		return w.fail(err)
	}
	w.appends++
	w.bytes += int64(len(b))
	if w.rec != nil {
		w.rec.Count(obs.WALAppend, 1)
	}
	return nil
}

// sync forces the log to stable storage. Safe beside a concurrent append.
func (w *walWriter) sync() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	w.syncs.Add(1)
	if w.rec != nil {
		w.rec.Count(obs.WALFsync, 1)
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	return nil
}

// close syncs and closes the log file.
func (w *walWriter) close() error {
	if err := w.sync(); err != nil {
		w.f.Close() // errscan:ok already failing; report the sync error
		return err
	}
	return w.f.Close()
}

// ReplayWAL scans a WAL byte stream, calling fn for each intact record in
// order, and returns the record count and the page size from the header.
// It stops cleanly at the first torn or corrupt record — after a crash the
// tail may be half-written or lost — so everything delivered to fn is the
// valid prefix. A short or foreign header returns ErrWALHeader. An error
// from fn aborts the scan and is returned as-is.
func ReplayWAL(r io.Reader, fn func(WALRecord) error) (n int, pageSize int, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || hdr != walMagic {
		return 0, 0, ErrWALHeader
	}
	br := byteReader{r: r}
	ps, err := binary.ReadUvarint(&br)
	if err != nil || ps == 0 || ps > 1<<30 {
		return 0, 0, ErrWALHeader
	}
	pageSize = int(ps)

	var frame [8]byte
	payload := make([]byte, 0, 64)
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return n, pageSize, nil // clean end or torn frame header
		}
		ln := binary.LittleEndian.Uint32(frame[0:4])
		crc := binary.LittleEndian.Uint32(frame[4:8])
		if ln == 0 || ln > maxWALRecord {
			return n, pageSize, nil // corrupt length: end of valid prefix
		}
		if cap(payload) < int(ln) {
			payload = make([]byte, ln)
		}
		payload = payload[:ln]
		if _, err := io.ReadFull(r, payload); err != nil {
			return n, pageSize, nil // torn payload
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			return n, pageSize, nil // bit rot or torn write inside the frame
		}
		rec, ok := decodeWALRecord(payload)
		if !ok {
			return n, pageSize, nil
		}
		if err := fn(rec); err != nil {
			return n, pageSize, err
		}
		n++
	}
}

// byteReader adapts an io.Reader for binary.ReadUvarint.
type byteReader struct{ r io.Reader }

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	if _, err := io.ReadFull(b.r, one[:]); err != nil {
		return 0, err
	}
	return one[0], nil
}

// decodeWALRecord parses one payload; ok is false on any malformation
// (unknown kind, short fields, trailing bytes).
func decodeWALRecord(p []byte) (rec WALRecord, ok bool) {
	if len(p) < 1 {
		return rec, false
	}
	rec.Kind = WALKind(p[0])
	p = p[1:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	txn, ok2 := next()
	if !ok2 {
		return rec, false
	}
	rec.Txn = txn
	switch rec.Kind {
	case WALBegin, WALAbort:
	case WALPlace, WALRemove:
		obj, ok1 := next()
		pg, ok2 := next()
		sz, ok3 := next()
		if !ok1 || !ok2 || !ok3 || obj > 1<<32-1 || pg > 1<<32-1 || sz > 1<<30 {
			return rec, false
		}
		rec.Obj, rec.Page, rec.Size = model.ObjectID(obj), PageID(pg), int(sz)
	case WALMove:
		obj, ok1 := next()
		from, ok2 := next()
		to, ok3 := next()
		sz, ok4 := next()
		if !ok1 || !ok2 || !ok3 || !ok4 || obj > 1<<32-1 || from > 1<<32-1 || to > 1<<32-1 || sz > 1<<30 {
			return rec, false
		}
		rec.Obj, rec.Page, rec.To, rec.Size = model.ObjectID(obj), PageID(from), PageID(to), int(sz)
	case WALCommit, WALCheckpoint:
		d, ok1 := next()
		if !ok1 {
			return rec, false
		}
		rec.Digest = d
	default:
		return rec, false
	}
	return rec, len(p) == 0
}
