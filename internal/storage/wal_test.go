package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// walSample is a representative record of every kind, in a legal order.
var walSample = []WALRecord{
	{Kind: WALPlace, Txn: 0, Obj: 1, Page: 1, Size: 40},
	{Kind: WALPlace, Txn: 0, Obj: 2, Page: 1, Size: 30},
	{Kind: WALCommit, Txn: 0, Digest: 0xDEADBEEF},
	{Kind: WALBegin, Txn: 1},
	{Kind: WALMove, Txn: 1, Obj: 2, Page: 1, To: 2, Size: 30},
	{Kind: WALRemove, Txn: 1, Obj: 1, Page: 1, Size: 40},
	{Kind: WALCommit, Txn: 1, Digest: 0xCAFED00D},
	{Kind: WALBegin, Txn: 2},
	{Kind: WALAbort, Txn: 2},
	{Kind: WALCheckpoint, Txn: 0, Digest: 0xCAFED00D},
}

// writeWAL appends recs through a real walWriter and returns the log bytes.
func writeWAL(t *testing.T, recs []WALRecord) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := newWALWriter(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func replayAll(t *testing.T, b []byte) ([]WALRecord, int) {
	t.Helper()
	var got []WALRecord
	n, ps, err := ReplayWAL(bytes.NewReader(b), func(r WALRecord) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(got) {
		t.Fatalf("record count %d, delivered %d", n, len(got))
	}
	return got, ps
}

func TestWALRoundTrip(t *testing.T) {
	b := writeWAL(t, walSample)
	got, ps := replayAll(t, b)
	if ps != 4096 {
		t.Fatalf("page size %d, want 4096", ps)
	}
	if len(got) != len(walSample) {
		t.Fatalf("replayed %d records, want %d", len(got), len(walSample))
	}
	for i, want := range walSample {
		if got[i] != want {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

// Every truncation point of a valid log replays cleanly as a prefix: a
// crash can tear the tail at any byte and recovery must still succeed.
func TestWALTornTailEveryOffset(t *testing.T) {
	b := writeWAL(t, walSample)
	// Record where each record's frame ends, so we know the expected prefix
	// length for every truncation point.
	ends := recordEnds(t, b)
	hdr := ends[0] // header length (ends[0] is the offset where records start)
	for cut := 0; cut <= len(b); cut++ {
		truncated := b[:cut]
		if cut < hdr {
			if _, _, err := ReplayWAL(bytes.NewReader(truncated), nil2); !errors.Is(err, ErrWALHeader) {
				t.Fatalf("cut %d (inside header): err=%v, want ErrWALHeader", cut, err)
			}
			continue
		}
		want := 0
		for i := 1; i < len(ends); i++ {
			if ends[i] <= cut {
				want = i
			}
		}
		n, _, err := ReplayWAL(bytes.NewReader(truncated), nil2)
		if err != nil {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if n != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, want)
		}
	}
}

func nil2(WALRecord) error { return nil }

// recordEnds returns [headerEnd, end of record 0, end of record 1, ...].
func recordEnds(t *testing.T, b []byte) []int {
	t.Helper()
	off := len(walMagic)
	_, n := binary.Uvarint(b[off:])
	if n <= 0 {
		t.Fatal("bad header uvarint")
	}
	off += n
	ends := []int{off}
	for off+8 <= len(b) {
		ln := int(binary.LittleEndian.Uint32(b[off : off+4]))
		off += 8 + ln
		ends = append(ends, off)
	}
	if off != len(b) {
		t.Fatalf("log does not end on a record boundary: off=%d len=%d", off, len(b))
	}
	return ends
}

// A corrupt byte inside a record's payload ends the valid prefix there; the
// records before it still replay.
func TestWALCorruptPayloadStopsCleanly(t *testing.T) {
	b := writeWAL(t, walSample)
	ends := recordEnds(t, b)
	victim := 4 // corrupt record index 4 (the WALMove)
	pos := ends[victim] + 8 + 2
	mut := append([]byte(nil), b...)
	mut[pos] ^= 0xFF
	n, _, err := ReplayWAL(bytes.NewReader(mut), nil2)
	if err != nil {
		t.Fatal(err)
	}
	if n != victim {
		t.Fatalf("replayed %d records past corruption, want %d", n, victim)
	}
}

// An impossible length field (zero or huge) ends the prefix without error.
func TestWALBadLengthStopsCleanly(t *testing.T) {
	for _, ln := range []uint32{0, maxWALRecord + 1, 1 << 31} {
		b := writeWAL(t, walSample[:3])
		frame := make([]byte, 8)
		binary.LittleEndian.PutUint32(frame[0:4], ln)
		b = append(b, frame...)
		n, _, err := ReplayWAL(bytes.NewReader(b), nil2)
		if err != nil {
			t.Fatalf("len %d: %v", ln, err)
		}
		if n != 3 {
			t.Fatalf("len %d: replayed %d, want 3", ln, n)
		}
	}
}

// A record whose payload carries trailing garbage (valid CRC, bad encoding)
// is rejected as the end of the prefix.
func TestWALTrailingBytesRejected(t *testing.T) {
	b := writeWAL(t, walSample[:3])
	payload := []byte{byte(WALBegin), 1, 0xFF} // extra trailing byte
	frame := make([]byte, 8)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	b = append(append(b, frame...), payload...)
	n, _, err := ReplayWAL(bytes.NewReader(b), nil2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d, want 3 (trailing-byte record must not decode)", n)
	}
}

func TestWALBadHeader(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("OODB"),
		[]byte("NOTAWAL0\x10"),
	}
	for _, c := range cases {
		if _, _, err := ReplayWAL(bytes.NewReader(c), nil2); !errors.Is(err, ErrWALHeader) {
			t.Errorf("header %q: err=%v, want ErrWALHeader", c, err)
		}
	}
}

func TestParseFsync(t *testing.T) {
	cases := []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"", FsyncAlways, true},
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
	}
	for _, c := range cases {
		got, err := ParseFsync(c.in)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("ParseFsync(%q) = %v, %v", c.in, got, err)
		}
		if c.ok && c.in != "" {
			if got.String() != c.in {
				t.Errorf("String() = %q, want %q", got.String(), c.in)
			}
		}
	}
}

// commit is one durable commit as the engines perform it: the record
// appended, then the policy's sync awaited.
func commit(t *testing.T, fb *FileBackend, txn int) {
	t.Helper()
	if err := fb.LogCommit(txn); err != nil {
		t.Fatal(err)
	}
	if err := fb.WaitDurable(); err != nil {
		t.Fatal(err)
	}
}

// Fsync policy controls how often commits hit stable storage: every commit,
// every fsyncEveryCommits-th commit, or only at bootstrap/close. The sync is
// WaitDurable's under every policy: LogCommit alone never flushes.
func TestFsyncPolicySyncCounts(t *testing.T) {
	const commits = 40
	cases := []struct {
		policy FsyncPolicy
		want   int64 // syncs attributable to the commits alone
	}{
		{FsyncAlways, commits},
		{FsyncInterval, commits / fsyncEveryCommits},
		{FsyncNever, 0},
	}
	for _, c := range cases {
		t.Run(c.policy.String(), func(t *testing.T) {
			g, m, _ := setup(t, 4096)
			_ = g
			fb, err := NewFileBackend(m, BackendOptions{Dir: t.TempDir(), Fsync: c.policy})
			if err != nil {
				t.Fatal(err)
			}
			if err := fb.CommitBootstrap(); err != nil {
				t.Fatal(err)
			}
			base := fb.DurableStats().WALSyncs
			for i := 0; i < commits; i++ {
				if err := fb.LogBegin(i); err != nil {
					t.Fatal(err)
				}
				before := fb.DurableStats().WALSyncs
				if err := fb.LogCommit(i); err != nil {
					t.Fatal(err)
				}
				if got := fb.DurableStats().WALSyncs; got != before {
					t.Fatalf("LogCommit(%d) synced the log", i)
				}
				if err := fb.WaitDurable(); err != nil {
					t.Fatal(err)
				}
			}
			if got := fb.DurableStats().WALSyncs - base; got != c.want {
				t.Fatalf("syncs = %d, want %d", got, c.want)
			}
			if got := fb.Committed(); got != commits {
				t.Fatalf("committed = %d, want %d", got, commits)
			}
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// One goroutine appends whole transactions while another flushes and reads
// the counters: the overlap the concurrent engine produces, for -race.
func TestWaitDurableOverlapsAppend(t *testing.T) {
	_, m, _ := setup(t, 4096)
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.CommitBootstrap(); err != nil {
		t.Fatal(err)
	}
	const commits = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < commits; i++ {
			if err := fb.WaitDurable(); err != nil {
				done <- err
				return
			}
			_ = fb.DurableStats()
		}
		done <- nil
	}()
	for i := 0; i < commits; i++ {
		if err := fb.LogBegin(i); err != nil {
			t.Fatal(err)
		}
		if err := fb.LogCommit(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := RecoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != commits {
		t.Fatalf("recovered %d commits, want %d", st.Committed, commits)
	}
}

// The first failed write poisons the backend: every later journal, boundary
// and WaitDurable call returns that same error, even once the file itself
// would work again — a retry that succeeds proves nothing about the bytes
// the failed call lost. Records wait in the log's tail until a
// boundary writes them, so the failure surfaces at the commit, not at the
// begin.
func TestFileBackendFailStop(t *testing.T) {
	g, m, ty := setup(t, 4096)
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.CommitBootstrap(); err != nil {
		t.Fatal(err)
	}
	if err := fb.LogBegin(0); err != nil {
		t.Fatal(err)
	}
	commit(t, fb, 0)

	healthy := fb.wal.f
	broken, err := os.Open(filepath.Join(dir, WALFileName)) // read-only: Write fails
	if err != nil {
		t.Fatal(err)
	}
	defer broken.Close() // errscan:ok test cleanup
	fb.wal.f = broken
	if err := fb.LogBegin(1); err != nil {
		t.Fatalf("LogBegin wrote to the file: %v", err)
	}
	first := fb.LogCommit(1)
	if first == nil {
		t.Fatal("commit to a read-only log succeeded")
	}
	fb.wal.f = healthy // the device "recovers"; the backend must not

	pg := fb.AllocatePage()
	for name, err := range map[string]error{
		"LogBegin":        fb.LogBegin(2),
		"Place":           fb.Place(newObj(t, g, ty, 10), pg),
		"LogCommit":       fb.LogCommit(2),
		"LogAbort":        fb.LogAbort(2),
		"WaitDurable":     fb.WaitDurable(),
		"Checkpoint":      fb.Checkpoint(),
		"CommitBootstrap": fb.CommitBootstrap(),
	} {
		if err != first {
			t.Errorf("%s after the failure: got %v, want the first error %v", name, err, first)
		}
	}
	if err := fb.Close(); !errors.Is(err, first) {
		t.Errorf("Close after the failure: got %v, want it to report %v", err, first)
	}
	// What reached the disk before the failure is still a valid commit prefix.
	st, err := RecoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 1 {
		t.Fatalf("recovered %d commits, want the 1 acknowledged before the failure", st.Committed)
	}
}

// The WAL append path is on every mutation; it must not allocate.
func TestWALAppendAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := newWALWriter(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close() // errscan:ok test cleanup
	rec := WALRecord{Kind: WALMove, Txn: 7, Obj: 123, Page: 45, To: 67, Size: 89}
	if err := w.append(rec); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("walWriter.append allocates %v per record, want 0", avg)
	}
}

// The journal path (mutation applied + record appended) must not allocate
// beyond what the in-memory manager itself does.
func TestFileBackendJournalAllocs(t *testing.T) {
	g, m, ty := setup(t, 4096)
	fb, err := NewFileBackend(m, BackendOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close() // errscan:ok test cleanup
	pg := fb.AllocatePage()
	o := newObj(t, g, ty, 64)
	if err := fb.Place(o, pg); err != nil {
		t.Fatal(err)
	}
	to := fb.AllocatePage()
	if err := fb.Move(o, to); err != nil { // warm both pages' entry slices
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := fb.Move(o, pg); err != nil {
			t.Fatal(err)
		}
		pg, to = to, pg
	})
	if avg != 0 {
		t.Fatalf("FileBackend.Move allocates %v per call, want 0", avg)
	}
}
