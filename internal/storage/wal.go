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
)

// The write-ahead log is the file backend's recovery authority: every
// placement mutation and every transaction boundary appends one
// length-prefixed, CRC-checked record, and recovery replays the records of
// committed transactions in log order (the goDB-filestore shape: rebuild
// state by replaying committed transactions). It is the only file in a
// data directory.
//
// On-disk layout:
//
//	header:  "OODBWAL1" magic (8 bytes) + page size (uvarint)
//	record:  length (uint32 LE) | crc32c(payload) (uint32 LE) | payload
//	payload: kind (1 byte) + uvarint fields per kind (see WALRecord)
//
// Records reach the file a batch at a time (see walWriter). A crash loses
// the batch not yet written with the process, and can tear the last write
// or lose the unsynced tail entirely; replay stops cleanly at the first
// record that is short, oversized, fails its CRC, or does not decode —
// everything before it is the valid prefix.

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

// walTailFlush is the pending-tail size at which append writes the tail
// without waiting for a boundary. Construction journals its whole base as
// one bootstrap transaction (~2 MB at OCB scale 0.05); this cuts it into
// 64 KiB writes.
const walTailFlush = 64 << 10

// maxWALFrame bounds one framed record: length, CRC, kind byte and at most
// five uvarint fields (Move's txn, object, from, to, size).
const maxWALFrame = 8 + 1 + 5*binary.MaxVarintLen64

// walWriter frames records onto a pending tail in memory and hands the tail
// to the log file in one write(2) per flush: the log's own buffer, as the
// paper's log manager keeps one. append flushes by itself only once the
// tail reaches walTailFlush; every other flush is the caller's, at the
// points where the bytes must be on the file (transaction boundaries and
// close). The tail's capacity is reserved
// up front, so the append path allocates nothing.
//
// append and flush are serialized by the caller. sync may run beside them
// (a commit's fsync overlaps the next transaction's appends) and never
// touches the tail: it forces what earlier flushes wrote, so what both
// sides touch is atomic.
type walWriter struct {
	f    *os.File
	tail []byte // framed records not yet written to f

	writes int64 // write(2) calls that reached f, the header's excluded
	syncs  atomic.Int64
	bytes  int64 // record bytes written to f

	// failed holds the first write or sync error. The log is fail-stop
	// from then on: Linux reports a lost write-back once and then clears
	// it, so a retry that "succeeds" proves nothing about what is on disk.
	failed atomic.Pointer[error]
}

// fail poisons the log with err unless an earlier failure already has,
// and returns the failure every later append, flush and sync will report.
func (w *walWriter) fail(err error) error {
	w.failed.CompareAndSwap(nil, &err)
	return *w.failed.Load()
}

// newWALWriter creates (truncating) the log file and writes the header.
func newWALWriter(path string, pageSize int) (*walWriter, error) {
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
	return &walWriter{f: f, tail: make([]byte, 0, walTailFlush+maxWALFrame)}, nil
}

// append frames one record onto the tail, writing the tail once it reaches
// walTailFlush. Callers serialize.
func (w *walWriter) append(rec WALRecord) error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	start := len(w.tail)
	b := append(w.tail, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc, patched below
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
	payload := b[start+8:]
	binary.LittleEndian.PutUint32(b[start:start+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:start+8], crc32.Checksum(payload, castagnoli))
	w.tail = b
	if len(b) >= walTailFlush {
		return w.flush()
	}
	return nil
}

// flush writes the tail to the log file in one write(2). An empty tail
// costs no system call. Callers serialize.
func (w *walWriter) flush() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	if len(w.tail) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.tail); err != nil {
		return w.fail(err)
	}
	w.writes++
	w.bytes += int64(len(w.tail))
	w.tail = w.tail[:0]
	return nil
}

// seal appends a boundary record and flushes: the record reaches the file
// together with everything journaled before it. Callers serialize.
func (w *walWriter) seal(rec WALRecord) error {
	if err := w.append(rec); err != nil {
		return err
	}
	return w.flush()
}

// sync forces what earlier flushes wrote to stable storage. It never
// touches the tail, so it is safe beside a concurrent append or flush.
func (w *walWriter) sync() error {
	if p := w.failed.Load(); p != nil {
		return *p
	}
	w.syncs.Add(1)
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	return nil
}

// close flushes the tail, syncs, and closes the log file.
func (w *walWriter) close() error {
	err := w.flush()
	if err == nil {
		err = w.sync()
	}
	if err != nil {
		w.f.Close() // errscan:ok already failing; report the flush or sync error
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
