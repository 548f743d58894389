package txlog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oodb/internal/storage"
)

func TestBeginEnd(t *testing.T) {
	m := NewManager(1024)
	if err := m.Begin(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Begin(1); err == nil {
		t.Fatal("double begin must fail")
	}
	if m.Open() != 1 {
		t.Fatalf("open=%d", m.Open())
	}
	if err := m.End(1); err != nil {
		t.Fatal(err)
	}
	if err := m.End(1); err == nil {
		t.Fatal("double end must fail")
	}
	if _, err := m.Append(1, 10, 1); err == nil {
		t.Fatal("append outside a transaction must fail")
	}
}

func TestBeforeImageCoalescing(t *testing.T) {
	m := NewManager(1 << 20)
	m.Begin(1) //nolint:errcheck
	ios, err := m.Append(1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ios != 1 {
		t.Fatalf("first update to a page must log its before image: ios=%d", ios)
	}
	ios, _ = m.Append(1, 10, 5)
	if ios != 0 {
		t.Fatalf("second update to the same page must coalesce: ios=%d", ios)
	}
	ios, _ = m.Append(1, 10, 6)
	if ios != 1 {
		t.Fatalf("different page needs its own before image: ios=%d", ios)
	}
	m.End(1) //nolint:errcheck

	// A new transaction touching the same page pays again.
	m.Begin(2) //nolint:errcheck
	ios, _ = m.Append(2, 10, 5)
	if ios != 1 {
		t.Fatalf("coalescing must not span transactions: ios=%d", ios)
	}
	m.End(2) //nolint:errcheck
	st := m.Stats()
	if st.BeforeImageIOs != 3 || st.Records != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRecycledSetStartsEmpty: End and Abort hand the coalescing set back
// for reuse, and the next transaction must get it empty — every page it
// touches pays its before-image again, however many the set held before.
func TestRecycledSetStartsEmpty(t *testing.T) {
	m := NewManager(1 << 20)
	touch := func(txn int) (ios int) {
		for pg := storage.PageID(1); pg <= 20; pg++ {
			n, err := m.Append(txn, 10, pg)
			if err != nil {
				t.Fatal(err)
			}
			ios += n
		}
		return ios
	}
	for txn, end := range []func(int) error{m.End, m.Abort, m.End} {
		if err := m.Begin(txn); err != nil {
			t.Fatal(err)
		}
		if ios := touch(txn); ios != 20 {
			t.Fatalf("txn %d: %d before-image I/Os over 20 pages, want 20", txn, ios)
		}
		if err := end(txn); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.free) != 1 || m.Open() != 0 {
		t.Fatalf("%d recycled sets, %d open; want 1 and 0", len(m.free), m.Open())
	}
}

// TestCycleAllocs: a Begin/Append/End cycle allocates nothing once a
// coalescing set has been recycled.
func TestCycleAllocs(t *testing.T) {
	m := NewManager(1 << 20)
	txn := 0
	cycle := func() {
		m.Begin(txn)         //nolint:errcheck
		m.Append(txn, 10, 3) //nolint:errcheck
		m.Append(txn, 10, 4) //nolint:errcheck
		m.End(txn)           //nolint:errcheck
		txn++
	}
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("Begin/Append/End cycle allocates %v times, want 0", a)
	}
}

func TestCircularBufferFlush(t *testing.T) {
	m := NewManager(100) // record = 16 + objSize
	m.Begin(1)           //nolint:errcheck
	// Records of 16+34=50 bytes: two fit, third overflows.
	var flushes int
	for i := 0; i < 5; i++ {
		ios, err := m.Append(1, 34, storage.NilPage)
		if err != nil {
			t.Fatal(err)
		}
		flushes += ios
	}
	// used: 50,100, flush->50, 100, flush->50 -> 2 flushes.
	if flushes != 2 {
		t.Fatalf("flushes=%d", flushes)
	}
	if m.Stats().BufferFlushes != 2 {
		t.Fatalf("stats: %+v", m.Stats())
	}
	if m.used != 50 {
		t.Fatalf("used=%d", m.used)
	}
}

func TestCircularBufferExactFit(t *testing.T) {
	// A record landing exactly on the capacity boundary must NOT flush:
	// the flush condition is used+rec > bufSize, strictly greater.
	m := NewManager(100)
	m.Begin(1)                                   //nolint:errcheck
	ios, err := m.Append(1, 84, storage.NilPage) // record = 16+84 = 100
	if err != nil {
		t.Fatal(err)
	}
	if ios != 0 {
		t.Fatalf("exact-fit record flushed: ios=%d", ios)
	}
	if m.used != 100 {
		t.Fatalf("used=%d, want 100", m.used)
	}
	// The very next record, however small, wraps the buffer.
	ios, _ = m.Append(1, 0, storage.NilPage) // record = 16
	if ios != 1 {
		t.Fatalf("post-boundary record did not flush: ios=%d", ios)
	}
	if m.used != 16 {
		t.Fatalf("used=%d after wrap, want 16", m.used)
	}
}

func TestCircularBufferOversizedRecord(t *testing.T) {
	// A record larger than the whole buffer flushes on every append — even
	// the first, into an empty buffer, since it can never fit: the model
	// charges the write-through as one flush I/O each time.
	m := NewManager(50)
	m.Begin(1) //nolint:errcheck
	for i := 0; i < 3; i++ {
		ios, err := m.Append(1, 100, storage.NilPage) // record = 116 > 50
		if err != nil {
			t.Fatal(err)
		}
		if ios != 1 {
			t.Fatalf("append %d: oversized record must flush: ios=%d", i, ios)
		}
	}
	if got := m.Stats().BufferFlushes; got != 3 {
		t.Fatalf("flushes=%d, want 3", got)
	}
}

func TestCircularBufferManyWraps(t *testing.T) {
	// Long-run wraparound accounting: after N appends of fixed-size records,
	// flushes and residual bytes match the closed form.
	const bufSize, objSize, n = 128, 16, 1000
	rec := recordHeader + objSize // 32 bytes, 4 per buffer
	m := NewManager(bufSize)
	m.Begin(1) //nolint:errcheck
	flushes := 0
	for i := 0; i < n; i++ {
		ios, err := m.Append(1, objSize, storage.NilPage)
		if err != nil {
			t.Fatal(err)
		}
		flushes += ios
	}
	perBuf := bufSize / rec
	wantFlushes := (n - 1) / perBuf
	if flushes != wantFlushes {
		t.Fatalf("flushes=%d, want %d", flushes, wantFlushes)
	}
	wantUsed := rec * (1 + (n-1)%perBuf)
	if m.used != wantUsed {
		t.Fatalf("used=%d, want %d", m.used, wantUsed)
	}
	if got := m.Stats().BytesLogged; got != n*rec {
		t.Fatalf("bytes logged=%d, want %d", got, n*rec)
	}
}

func TestNilPageSkipsBeforeImage(t *testing.T) {
	m := NewManager(1 << 20)
	m.Begin(1) //nolint:errcheck
	ios, err := m.Append(1, 10, storage.NilPage)
	if err != nil {
		t.Fatal(err)
	}
	if ios != 0 {
		t.Fatalf("nil page must not charge a before image: %d", ios)
	}
}

func TestBadBufferSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewManager(0)
}

// Property: total flush count equals what a straightforward byte counter
// predicts, and before-image I/Os equal the number of distinct
// (transaction, page) update pairs.
func TestAccountingMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bufSize := 200 + rng.Intn(800)
		m := NewManager(bufSize)
		used := 0
		wantFlushes := 0
		wantImages := 0
		touched := map[[2]int]bool{}
		for txn := 0; txn < 20; txn++ {
			if err := m.Begin(txn); err != nil {
				return false
			}
			n := rng.Intn(15)
			for i := 0; i < n; i++ {
				size := rng.Intn(100)
				pg := 1 + rng.Intn(6)
				key := [2]int{txn, pg}
				if !touched[key] {
					touched[key] = true
					wantImages++
				}
				rec := recordHeader + size
				if used+rec > bufSize {
					wantFlushes++
					used = 0
				}
				used += rec
				if _, err := m.Append(txn, size, storage.PageID(pg)); err != nil {
					return false
				}
			}
			if err := m.End(txn); err != nil {
				return false
			}
		}
		st := m.Stats()
		return st.BufferFlushes == wantFlushes && st.BeforeImageIOs == wantImages &&
			st.IOs() == wantFlushes+wantImages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
