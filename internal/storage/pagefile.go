package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"oodb/internal/model"
)

// pageFile stores fixed-size page frames at offset (pageID-1)*pageSize —
// the DiskManager shape: the buffer pool above it reads and writes whole
// frames by page ID, and the file grows implicitly as higher IDs are
// written.
//
// Frame layout (within the pageSize-byte slot):
//
//	magic      uint32 LE  'OPGF'
//	pageID     uint32 LE
//	encoded    uint32 LE  entries actually encoded in this frame
//	total      uint32 LE  objects resident on the page
//	crc        uint32 LE  crc32c of the whole frame with this field zeroed
//	entries    encoded × (uvarint objectID + uvarint size)
//
// encoded can be less than total: a 4 KB page legally holds thousands of
// one-byte objects, more than the frame can encode, so the tail is
// truncated. That is harmless — the WAL is the recovery authority and
// frames are derived state; the frame exists to bear real page-granular
// I/O and to let a CRC scrub detect torn page writes.
type pageFile struct {
	f        *os.File
	pageSize int
	buf      []byte // one frame of scratch; reused across calls
}

const (
	pageFrameMagic  = 0x4F504746 // 'OPGF'
	pageFrameHeader = 20
)

// minPageFrame is the smallest frame that can hold the header; pages below
// this are rejected at open.
const minPageFrame = pageFrameHeader + 4

func openPageFile(path string, pageSize int) (*pageFile, error) {
	if pageSize < minPageFrame {
		return nil, fmt.Errorf("storage: page size %d below frame minimum %d", pageSize, minPageFrame)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &pageFile{f: f, pageSize: pageSize, buf: make([]byte, pageSize)}, nil
}

// writePage encodes the page's resident objects into its frame slot.
// Callers serialize (the backend holds ioMu).
func (pf *pageFile) writePage(p *Page, sizeOf func(model.ObjectID) int) error {
	b := pf.buf[:pf.pageSize]
	clear(b)
	binary.LittleEndian.PutUint32(b[0:4], pageFrameMagic)
	binary.LittleEndian.PutUint32(b[4:8], uint32(p.ID))
	binary.LittleEndian.PutUint32(b[12:16], uint32(len(p.Objects)))
	encoded, off := 0, pageFrameHeader
	var scratch [2 * binary.MaxVarintLen64]byte
	for _, obj := range p.Objects {
		e := binary.PutUvarint(scratch[:], uint64(obj))
		e += binary.PutUvarint(scratch[e:], uint64(sizeOf(obj)))
		if off+e > pf.pageSize {
			break // frame full; remaining entries are truncated (encoded < total)
		}
		off += copy(b[off:], scratch[:e])
		encoded++
	}
	binary.LittleEndian.PutUint32(b[8:12], uint32(encoded))
	binary.LittleEndian.PutUint32(b[16:20], crc32.Checksum(b, castagnoli))
	if _, err := pf.f.WriteAt(b, int64(p.ID-1)*int64(pf.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", p.ID, err)
	}
	return nil
}

// readPage reads and validates page pg's frame. A frame past the end of
// the file or all zero (the page was allocated but never written back) is
// valid and returns ok=false; a failed read, or a frame with a bad magic,
// wrong page ID, or CRC mismatch, is an error. Callers serialize.
func (pf *pageFile) readPage(pg PageID) (ok bool, err error) {
	b := pf.buf[:pf.pageSize]
	n, err := pf.f.ReadAt(b, int64(pg-1)*int64(pf.pageSize))
	if n < len(b) {
		// Only the end of the file means "never written": the file has not
		// grown that far. Any other short read is the device failing.
		if errors.Is(err, io.EOF) {
			return false, nil
		}
		return false, fmt.Errorf("storage: read page %d: %w", pg, err)
	}
	if isZero(b) {
		return false, nil
	}
	if binary.LittleEndian.Uint32(b[0:4]) != pageFrameMagic {
		return false, fmt.Errorf("storage: page %d frame has bad magic", pg)
	}
	if got := PageID(binary.LittleEndian.Uint32(b[4:8])); got != pg {
		return false, fmt.Errorf("storage: page %d frame claims page %d", pg, got)
	}
	crc := binary.LittleEndian.Uint32(b[16:20])
	binary.LittleEndian.PutUint32(b[16:20], 0)
	if crc32.Checksum(b, castagnoli) != crc {
		return false, fmt.Errorf("storage: page %d frame failed CRC", pg)
	}
	return true, nil
}

// scrub validates every frame slot up to numPages, counting frames that
// pass their CRC and frames that fail it. Never-written (all-zero) slots
// count as neither.
func (pf *pageFile) scrub(numPages int) (valid, corrupt int) {
	for pg := PageID(1); int(pg) <= numPages; pg++ {
		ok, err := pf.readPage(pg)
		switch {
		case err != nil:
			corrupt++
		case ok:
			valid++
		}
	}
	return valid, corrupt
}

func (pf *pageFile) sync() error  { return pf.f.Sync() }
func (pf *pageFile) close() error { return pf.f.Close() }

// isZero reports whether b is all zero bytes.
func isZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
