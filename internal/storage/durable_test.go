package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oodb/internal/model"
)

// --- Backend conformance -------------------------------------------------

// conformanceBackends enumerates every registered backend wrapped over a
// fresh manager, so the behavioral suite below runs against each.
func conformanceBackends(t *testing.T) map[string]func(t *testing.T) (*model.Graph, Backend, model.TypeID) {
	t.Helper()
	mk := func(name string) func(t *testing.T) (*model.Graph, Backend, model.TypeID) {
		return func(t *testing.T) (*model.Graph, Backend, model.TypeID) {
			g, m, ty := setup(t, 256)
			opt := BackendOptions{}
			if !IsMemoryBackend(name) {
				opt.Dir = t.TempDir()
			}
			bk, err := NewBackendByName(name, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			if d, ok := bk.(Durable); ok {
				t.Cleanup(func() {
					if err := d.Close(); err != nil {
						t.Error(err)
					}
				})
			}
			return g, bk, ty
		}
	}
	out := map[string]func(t *testing.T) (*model.Graph, Backend, model.TypeID){}
	for _, name := range []string{"memory", "file"} {
		out[name] = mk(name)
	}
	return out
}

// TestBackendConformance runs the same scripted mutation sequence against
// every registered backend and asserts the Backend contract holds
// identically: the file backend journals everything but must never change
// the observable placement semantics.
func TestBackendConformance(t *testing.T) {
	for name, mk := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			g, bk, ty := mk(t)
			p1, p2 := bk.AllocatePage(), bk.AllocatePage()
			a := newObj(t, g, ty, 100)
			b := newObj(t, g, ty, 100)
			c := newObj(t, g, ty, 120)

			if err := bk.Place(a, p1); err != nil {
				t.Fatal(err)
			}
			if err := bk.Place(b, p1); err != nil {
				t.Fatal(err)
			}
			if err := bk.Place(c, p2); err != nil {
				t.Fatal(err)
			}
			if bk.NumPlaced() != 3 || bk.PageOf(a) != p1 || bk.PageOf(c) != p2 {
				t.Fatal("placement state wrong after Place")
			}
			if bk.FreeSpace(p1) != 56 || bk.FreeSpace(p2) != 136 {
				t.Fatalf("free space %d/%d, want 56/136", bk.FreeSpace(p1), bk.FreeSpace(p2))
			}
			// A move that does not fit fails without side effects.
			if err := bk.Move(c, p1); err == nil {
				t.Fatal("overfull move must fail")
			}
			if bk.PageOf(c) != p2 {
				t.Fatal("failed move relocated the object")
			}
			// A fitting move relocates; a same-page move is a no-op.
			if err := bk.Move(b, p2); err != nil {
				t.Fatal(err)
			}
			if err := bk.Move(b, p2); err != nil {
				t.Fatal("same-page move must be a no-op")
			}
			if err := bk.Remove(a); err != nil {
				t.Fatal(err)
			}
			if bk.PageOf(a) != NilPage || bk.NumPlaced() != 2 {
				t.Fatal("remove state wrong")
			}
			// The emptied page is reused.
			if got := bk.AllocatePage(); got != p1 {
				t.Fatalf("AllocatePage = %d, want reuse of %d", got, p1)
			}
			if !bk.Fits(36, p2) || bk.Fits(37, p2) {
				t.Fatal("Fits boundary wrong")
			}
			if err := bk.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendConformanceRandom drives both backends through the same
// seeded random op sequence and asserts their observable state never
// diverges — the cross-backend differential oracle at the storage layer.
func TestBackendConformanceRandom(t *testing.T) {
	gm, mem, tym := setup(t, 512)
	gf, mf, tyf := setup(t, 512)
	fb, err := NewFileBackend(mf, BackendOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close() // errscan:ok test cleanup

	rng := rand.New(rand.NewSource(42))
	var pages []PageID
	var objs []model.ObjectID
	for i := 0; i < 6; i++ {
		pm, pf := mem.AllocatePage(), fb.AllocatePage()
		if pm != pf {
			t.Fatalf("page allocation diverged: %d vs %d", pm, pf)
		}
		pages = append(pages, pm)
	}
	for step := 0; step < 500; step++ {
		switch rng.Intn(3) {
		case 0:
			om, _ := gm.NewObject("o", step, tym)
			of, _ := gf.NewObject("o", step, tyf)
			size := int32(16 + rng.Intn(200))
			om.Size, of.Size = size, size
			pg := pages[rng.Intn(len(pages))]
			e1, e2 := mem.Place(om.ID, pg), fb.Place(of.ID, pg)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: Place diverged: %v vs %v", step, e1, e2)
			}
			if e1 == nil {
				objs = append(objs, om.ID)
			}
		case 1:
			if len(objs) == 0 {
				continue
			}
			o := objs[rng.Intn(len(objs))]
			pg := pages[rng.Intn(len(pages))]
			e1, e2 := mem.Move(o, pg), fb.Move(o, pg)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: Move diverged: %v vs %v", step, e1, e2)
			}
		case 2:
			if len(objs) == 0 {
				continue
			}
			i := rng.Intn(len(objs))
			o := objs[i]
			if mem.PageOf(o) == NilPage {
				continue
			}
			if e1, e2 := mem.Remove(o), fb.Remove(o); (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: Remove diverged: %v vs %v", step, e1, e2)
			}
			objs = append(objs[:i], objs[i+1:]...)
		}
		if mem.StateDigest() != fb.StateDigest() {
			t.Fatalf("step %d: digests diverged", step)
		}
	}
	for _, o := range objs {
		if mem.PageOf(o) != fb.PageOf(o) {
			t.Fatalf("object %d: placement diverged", o)
		}
	}
	if err := fb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// --- Incremental digest ---------------------------------------------------

// The incrementally maintained digest must equal the brute-force XOR over
// the full placement map at every point.
func TestStateDigestIncremental(t *testing.T) {
	g, m, ty := setup(t, 512)
	brute := func() uint64 {
		var d uint64
		for i := 1; i <= m.NumPages(); i++ {
			for _, o := range m.ObjectsOn(PageID(i)) {
				d ^= PlacementHash(o, PageID(i))
			}
		}
		return d
	}
	rng := rand.New(rand.NewSource(7))
	var pages []PageID
	var objs []model.ObjectID
	for i := 0; i < 5; i++ {
		pages = append(pages, m.AllocatePage())
	}
	if m.StateDigest() != 0 {
		t.Fatal("empty manager must digest to 0")
	}
	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0:
			o, _ := g.NewObject("o", step, ty)
			o.Size = int32(16 + rng.Intn(150))
			if m.Place(o.ID, pages[rng.Intn(len(pages))]) == nil {
				objs = append(objs, o.ID)
			}
		case 1:
			if len(objs) > 0 {
				m.Move(objs[rng.Intn(len(objs))], pages[rng.Intn(len(pages))]) //nolint:errcheck // full pages may reject
			}
		case 2:
			if len(objs) > 0 {
				i := rng.Intn(len(objs))
				if m.PageOf(objs[i]) != NilPage {
					if err := m.Remove(objs[i]); err != nil {
						t.Fatal(err)
					}
				}
				objs = append(objs[:i], objs[i+1:]...)
			}
		}
		if got, want := m.StateDigest(), brute(); got != want {
			t.Fatalf("step %d: incremental digest %016x, brute force %016x", step, got, want)
		}
	}
}

// --- Crash recovery -------------------------------------------------------

// buildRecoveryFixture runs a bootstrap plus three transactions against a
// file backend and returns the backend, its graph/type, and the digest at
// the last commit.
func TestRecoverWALRoundTrip(t *testing.T) {
	g, m, ty := setup(t, 4096)
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	p1, p2 := fb.AllocatePage(), fb.AllocatePage()
	var objs []model.ObjectID
	for i := 0; i < 8; i++ {
		o := newObj(t, g, ty, 100)
		objs = append(objs, o)
		if err := fb.Place(o, p1); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.CommitBootstrap(); err != nil {
		t.Fatal(err)
	}
	bootstrapDigest := fb.StateDigest()

	// Txn 0: move half the objects; commit.
	if err := fb.LogBegin(0); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs[:4] {
		if err := fb.Move(o, p2); err != nil {
			t.Fatal(err)
		}
	}
	commit(t, fb, 0)

	// Txn 1: remove two; commit.
	if err := fb.LogBegin(1); err != nil {
		t.Fatal(err)
	}
	if err := fb.Remove(objs[0]); err != nil {
		t.Fatal(err)
	}
	if err := fb.Remove(objs[7]); err != nil {
		t.Fatal(err)
	}
	commit(t, fb, 1)
	committedDigest := fb.StateDigest()

	// Txn 2: an aborted transaction whose mutations were compensated
	// in-memory — net zero effect, and replay must skip its records.
	if err := fb.LogBegin(2); err != nil {
		t.Fatal(err)
	}
	x := newObj(t, g, ty, 50)
	if err := fb.Place(x, p1); err != nil {
		t.Fatal(err)
	}
	if err := fb.Remove(x); err != nil {
		t.Fatal(err)
	}
	if err := fb.LogAbort(2); err != nil {
		t.Fatal(err)
	}

	// Txn 3: in-flight at the crash — journaled but never committed. The
	// in-memory state must be compensated too (a real crash simply loses
	// the process; here the same manager keeps living). Its records wait
	// in the log's tail: no boundary has written them to the file.
	walPath := filepath.Join(dir, WALFileName)
	sizeBefore := fileSize(t, walPath)
	if err := fb.LogBegin(3); err != nil {
		t.Fatal(err)
	}
	y := newObj(t, g, ty, 60)
	if err := fb.Place(y, p2); err != nil {
		t.Fatal(err)
	}
	if err := fb.Remove(y); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, walPath); got != sizeBefore {
		t.Fatalf("wal.log grew %d -> %d bytes inside in-flight txn 3", sizeBefore, got)
	}

	// "Crash": read the WAL bytes as they exist right now, without Close's
	// checkpoint record.
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RecoverWAL(bytes.NewReader(walBytes))
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 2 {
		t.Fatalf("committed = %d, want 2", st.Committed)
	}
	// Applied: 8 bootstrap places + 4 moves + 2 removes. Skipped: the 2
	// mutation records of aborted txn 2; in-flight txn 3 never reached the
	// file.
	if st.Applied != 14 {
		t.Fatalf("applied = %d, want 14", st.Applied)
	}
	if st.Skipped != 2 {
		t.Fatalf("skipped = %d, want 2", st.Skipped)
	}
	if st.Objects != 6 {
		t.Fatalf("objects = %d, want 6", st.Objects)
	}
	if st.Digest != committedDigest {
		t.Fatalf("recovered digest %016x, want committed digest %016x", st.Digest, committedDigest)
	}

	// WALDigestAt indexes the commit records: 0 = bootstrap, 1, 2 = txns.
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err := WALDigestAt(dir, 0); err != nil || d != bootstrapDigest {
		t.Fatalf("WALDigestAt(0) = %016x, %v; want %016x", d, err, bootstrapDigest)
	}
	if d, err := WALDigestAt(dir, 2); err != nil || d != committedDigest {
		t.Fatalf("WALDigestAt(2) = %016x, %v; want %016x", d, err, committedDigest)
	}
	if _, err := WALDigestAt(dir, 3); err == nil {
		t.Fatal("WALDigestAt past the last commit must fail")
	}

	// RecoverDir on the cleanly closed directory sees the close checkpoint
	// and the same final digest.
	st2, err := RecoverDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Digest != committedDigest {
		t.Fatalf("RecoverDir digest %016x, want %016x", st2.Digest, committedDigest)
	}
}

// fileSize returns the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// recoverFile replays the WAL at path as it stands, without closing the
// backend that writes it: what a crash at this instant would leave.
func recoverFile(t *testing.T, path string) *RecoveredState {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := RecoverWAL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// Acknowledged means written: once LogCommit returns, the commit is on the
// log file even under FsyncNever and without Close — a process crash (not
// a power loss) right after it still recovers the commit.
func TestLogCommitWritesTheTransaction(t *testing.T) {
	g, m, ty := setup(t, 4096)
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close() // errscan:ok test cleanup
	pg := fb.AllocatePage()
	if err := fb.CommitBootstrap(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, WALFileName)
	for txn := 0; txn < 3; txn++ {
		if err := fb.LogBegin(txn); err != nil {
			t.Fatal(err)
		}
		if err := fb.Place(newObj(t, g, ty, 100), pg); err != nil {
			t.Fatal(err)
		}
		commit(t, fb, txn)
		st := recoverFile(t, walPath)
		if st.Committed != txn+1 || st.Digest != fb.StateDigest() {
			t.Fatalf("after commit %d: recovered %d commits at %016x, want %d at %016x",
				txn, st.Committed, st.Digest, txn+1, fb.StateDigest())
		}
	}
	// One write per transaction: begin, place and commit leave together.
	if got := fb.DurableStats().WALAppends; got != 4 {
		t.Fatalf("WALAppends = %d, want 4 (bootstrap + 3 commits)", got)
	}
}

// The file backend counts the pool's page transfers and touches no file
// for them: a fault reads nothing, a write-back writes nothing. Writing
// back a page that was never allocated is still refused, and not counted.
func TestPageTransfersCounted(t *testing.T) {
	_, m, _ := setup(t, 4096)
	fb, err := NewFileBackend(m, BackendOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close() // errscan:ok test cleanup
	pg := fb.AllocatePage()
	for _, pg := range []PageID{pg, pg + 1} {
		if err := fb.ReadPage(pg); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.WritePage(pg); err != nil {
		t.Fatal(err)
	}
	if err := fb.WritePage(pg + 1); !errors.Is(err, ErrNoSuchPage) {
		t.Fatalf("WritePage of an unallocated page: got %v, want ErrNoSuchPage", err)
	}
	if st := fb.DurableStats(); st.PageReads != 2 || st.PageWrites != 1 || st.WALAppends != 0 {
		t.Fatalf("after 2 reads and 1 write: %+v", st)
	}
}

// A page fault allocates nothing.
func TestReadPageAllocs(t *testing.T) {
	_, m, _ := setup(t, 4096)
	fb, err := NewFileBackend(m, BackendOptions{Dir: t.TempDir(), Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close() // errscan:ok test cleanup
	pg := fb.AllocatePage()
	avg := testing.AllocsPerRun(200, func() {
		if err := fb.ReadPage(pg); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("ReadPage allocates %v per read, want 0", avg)
	}
}

// Truncating the WAL mid-transaction recovers the longest committed prefix:
// chop the log anywhere and replay still lands on a commit-consistent state.
func TestRecoverWALTruncatedTail(t *testing.T) {
	g, m, ty := setup(t, 4096)
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	pg := fb.AllocatePage()
	if err := fb.CommitBootstrap(); err != nil {
		t.Fatal(err)
	}
	var digests []uint64 // digest at each commit point
	digests = append(digests, fb.StateDigest())
	for txn := 0; txn < 10; txn++ {
		if err := fb.LogBegin(txn); err != nil {
			t.Fatal(err)
		}
		o := newObj(t, g, ty, 64)
		if !fb.Fits(64, pg) {
			pg = fb.AllocatePage()
		}
		if err := fb.Place(o, pg); err != nil {
			t.Fatal(err)
		}
		commit(t, fb, txn)
		digests = append(digests, fb.StateDigest())
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation length must recover to the digest of the last commit
	// that fully survived the cut.
	for cut := 12; cut <= len(walBytes); cut += 7 {
		st, err := RecoverWAL(bytes.NewReader(walBytes[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if st.Committed > len(digests)-1 {
			t.Fatalf("cut %d: committed %d beyond full run", cut, st.Committed)
		}
		if want := digests[st.Committed]; st.Digest != want {
			t.Fatalf("cut %d: digest %016x, want %016x at commit %d", cut, st.Digest, want, st.Committed)
		}
	}
}

// --- File backend lifecycle ----------------------------------------------

func TestFileBackendRefusesExistingWAL(t *testing.T) {
	g, m, ty := setup(t, 4096)
	_, _ = g, ty
	dir := t.TempDir()
	fb, err := NewFileBackend(m, BackendOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileBackend(m, BackendOptions{Dir: dir}); err == nil {
		t.Fatal("reopening a directory with a WAL must be refused")
	} else if !strings.Contains(err.Error(), "RecoverDir") {
		t.Fatalf("refusal should point at RecoverDir: %v", err)
	}
}

func TestFileBackendCloseIdempotent(t *testing.T) {
	_, m, _ := setup(t, 4096)
	fb, err := NewFileBackend(m, BackendOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestFileBackendRequiresDir(t *testing.T) {
	_, m, _ := setup(t, 4096)
	if _, err := NewFileBackend(m, BackendOptions{}); err == nil {
		t.Fatal("empty data dir must be refused")
	}
}

// --- Registry -------------------------------------------------------------

func TestBackendRegistry(t *testing.T) {
	for _, name := range []string{"", "memory", "mem", "file", "disk", "File", "FILE"} {
		if !HasBackend(name) {
			t.Errorf("HasBackend(%q) = false", name)
		}
	}
	if HasBackend("tape") {
		t.Error("HasBackend(tape) = true")
	}
	for _, name := range []string{"", "memory", "mem", "Memory"} {
		if !IsMemoryBackend(name) {
			t.Errorf("IsMemoryBackend(%q) = false", name)
		}
	}
	if IsMemoryBackend("file") {
		t.Error("IsMemoryBackend(file) = true")
	}
	names := BackendNames()
	want := map[string]bool{"memory": true, "mem": true, "file": true, "disk": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected backend name %q", n)
		}
	}
	_, m, _ := setup(t, 4096)
	if _, err := NewBackendByName("tape", m, BackendOptions{}); err == nil {
		t.Fatal("unknown backend must be refused")
	}
	bk, err := NewBackendByName("", m, BackendOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bk != Backend(m) {
		t.Fatal("memory backend must be the manager itself")
	}
}
