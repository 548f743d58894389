// Package trace records and replays the engine's logical transaction
// stream. A trace is the byte-identical access sequence two policy wirings
// can be compared on: record once under any configuration, then replay the
// same Txn stream against different replacement policies, cluster
// strategies, or buffer sizes.
//
// The format is a fixed 8-byte header ("OODBTRC" + version) followed by one
// compact record per operation: a kind byte, a payload-size-class byte,
// then unsigned varints for the target, attach-to, and new-type fields,
// then a varint-counted list of scan targets. Varints keep traces small (most IDs are small integers) and
// the Writer/Reader pair runs allocation-free in steady state — recording
// must not perturb the run being recorded.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"oodb/internal/model"
	"oodb/internal/workload"
)

// Version is the trace format version this package writes. Version 2
// added the payload-size-class byte after the kind byte when the
// operation model grew first-class writes; version-1 traces are rejected
// with ErrVersion rather than misread.
const Version = 2

// Typed decode errors. Every Reader failure except a clean end of stream
// (io.EOF) wraps one of them, never a panic; the corrupt-input tests and
// the fuzz target assert it.
var (
	// ErrBadMagic means the input is not a trace at all.
	ErrBadMagic = errors.New("trace: bad magic (not a trace file)")
	// ErrVersion means the trace format version is unknown to this build.
	ErrVersion = errors.New("trace: unsupported format version")
	// ErrCorrupt means the stream is truncated or structurally invalid.
	ErrCorrupt = errors.New("trace: corrupt or truncated input")
)

// header is the fixed file prefix: 7 magic bytes plus the version byte.
var header = [8]byte{'O', 'O', 'D', 'B', 'T', 'R', 'C', Version}

// maxScanLen bounds the scan-list length a reader will accept, so a corrupt
// or adversarial length prefix cannot force a huge allocation.
const maxScanLen = 1 << 20

// Writer appends transactions to a trace stream.
type Writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	n   int
}

// NewWriter writes the trace header and returns a writer. Call Flush when
// recording ends.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{w: bufio.NewWriter(w)}
	if _, err := tw.w.Write(header[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return tw, nil
}

func (tw *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(tw.buf[:], v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

// Write appends one transaction record.
func (tw *Writer) Write(t workload.Op) error {
	if t.Kind >= workload.NumQueryKinds {
		return fmt.Errorf("trace: invalid query kind %d", t.Kind)
	}
	if err := tw.w.WriteByte(byte(t.Kind)); err != nil {
		return err
	}
	if t.Size >= workload.NumSizeClasses {
		return fmt.Errorf("trace: invalid size class %d", t.Size)
	}
	if err := tw.w.WriteByte(byte(t.Size)); err != nil {
		return err
	}
	if err := tw.uvarint(uint64(t.Target)); err != nil {
		return err
	}
	if err := tw.uvarint(uint64(t.AttachTo)); err != nil {
		return err
	}
	if err := tw.uvarint(uint64(t.NewType)); err != nil {
		return err
	}
	if err := tw.uvarint(uint64(len(t.Targets))); err != nil {
		return err
	}
	for _, id := range t.Targets {
		if err := tw.uvarint(uint64(id)); err != nil {
			return err
		}
	}
	tw.n++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() int { return tw.n }

// Flush drains the internal buffer to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader replays transactions from a trace stream.
type Reader struct {
	r    *bufio.Reader
	scan []model.ObjectID
	n    int
}

// NewReader validates the trace header and returns a reader. Header
// failures map onto the typed errors: ErrBadMagic for a non-trace stream,
// ErrVersion for an unknown version, ErrCorrupt for a truncated header.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReader(r)}
	var h [8]byte
	if _, err := io.ReadFull(tr.r, h[:]); err != nil {
		return nil, fmt.Errorf("%w: trace header: %v", ErrCorrupt, err)
	}
	if [7]byte(h[:7]) != [7]byte(header[:7]) {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, h[:7])
	}
	if h[7] != Version {
		return nil, fmt.Errorf("%w: trace version %d, want %d", ErrVersion, h[7], Version)
	}
	return tr, nil
}

func (tr *Reader) uvarint(max uint64, what string) (uint64, error) {
	v, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return 0, fmt.Errorf("%w: reading %s: %v", ErrCorrupt, what, err)
	}
	if v > max {
		return 0, fmt.Errorf("%w: %s %d out of range", ErrCorrupt, what, v)
	}
	return v, nil
}

// Next decodes the next record into t. The Targets slice is backed by the
// reader's reusable buffer and is valid until the following Next call. At a
// clean end of stream Next returns io.EOF; truncation mid-record returns
// ErrCorrupt.
func (tr *Reader) Next(t *workload.Op) error {
	kind, err := tr.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("%w: reading record: %v", ErrCorrupt, err)
	}
	if workload.QueryKind(kind) >= workload.NumQueryKinds {
		return fmt.Errorf("%w: query kind %d", ErrCorrupt, kind)
	}
	size, err := tr.r.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: reading size class: %v", ErrCorrupt, err)
	}
	if workload.SizeClass(size) >= workload.NumSizeClasses {
		return fmt.Errorf("%w: size class %d", ErrCorrupt, size)
	}
	target, err := tr.uvarint(1<<32-1, "target")
	if err != nil {
		return err
	}
	attach, err := tr.uvarint(1<<32-1, "attach-to")
	if err != nil {
		return err
	}
	newType, err := tr.uvarint(1<<16-1, "new-type")
	if err != nil {
		return err
	}
	scanLen, err := tr.uvarint(maxScanLen, "scan length")
	if err != nil {
		return err
	}
	tr.scan = tr.scan[:0]
	for i := uint64(0); i < scanLen; i++ {
		id, err := tr.uvarint(1<<32-1, "scan target")
		if err != nil {
			return err
		}
		tr.scan = append(tr.scan, model.ObjectID(id))
	}
	t.Kind = workload.QueryKind(kind)
	t.Size = workload.SizeClass(size)
	t.Target = model.ObjectID(target)
	t.AttachTo = model.ObjectID(attach)
	t.NewType = model.TypeID(newType)
	if scanLen == 0 {
		t.Targets = nil
	} else {
		t.Targets = tr.scan
	}
	tr.n++
	return nil
}

// Count returns the number of records read so far.
func (tr *Reader) Count() int { return tr.n }
