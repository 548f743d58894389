package storage

import (
	"testing"

	"oodb/internal/model"
)

func benchManager(b *testing.B, n int) (*Manager, []model.ObjectID) {
	b.Helper()
	g := model.NewGraph()
	ty, err := g.DefineType("t", model.NilType, 100, model.FreqProfile{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := NewManager(g, 4096)
	ids := make([]model.ObjectID, n)
	// Two objects per page: removal churn below never empties a page, so
	// the free list stays flat.
	var pg PageID
	for i := 0; i < n; i++ {
		o, err := g.NewObject("o", i, ty)
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = o.ID
		if i%2 == 0 {
			pg = m.AllocatePage()
		}
		if err := m.Place(o.ID, pg); err != nil {
			b.Fatal(err)
		}
	}
	return m, ids
}

// BenchmarkPageOf measures the hottest lookup in the system: the dense
// object->page probe behind every affinity, candidate, and boost decision.
func BenchmarkPageOf(b *testing.B) {
	m, ids := benchManager(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.PageOf(ids[i%len(ids)]) == NilPage {
			b.Fatal("placed object lookup failed")
		}
	}
}

// BenchmarkPlaceRemove measures the placement-mechanics churn cycle.
func BenchmarkPlaceRemove(b *testing.B) {
	m, ids := benchManager(b, 256)
	id := ids[len(ids)-1]
	pg := m.PageOf(id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Remove(id); err != nil {
			b.Fatal(err)
		}
		if err := m.Place(id, pg); err != nil {
			b.Fatal(err)
		}
	}
}

// readPageBackend returns a file backend whose page file holds a hole at
// page 1 (a slot inside the file's extent that was never written), a
// written frame at page 2, and ends before page 3.
func readPageBackend(tb testing.TB) *FileBackend {
	tb.Helper()
	g := model.NewGraph()
	ty, err := g.DefineType("t", model.NilType, 100, model.FreqProfile{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	fb, err := NewFileBackend(NewManager(g, 4096), BackendOptions{Dir: tb.TempDir(), Fsync: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { fb.Close() }) // errscan:ok test cleanup
	fb.AllocatePage()
	pg := fb.AllocatePage()
	for i := 0; i < 5; i++ {
		o, err := g.NewObject("o", i, ty)
		if err != nil {
			tb.Fatal(err)
		}
		if err := fb.Place(o.ID, pg); err != nil {
			tb.Fatal(err)
		}
	}
	if err := fb.WritePage(pg); err != nil {
		tb.Fatal(err)
	}
	return fb
}

// readPageCases are the three outcomes of a page fault on the file
// backend, keyed by the page readPageBackend lays out for each.
var readPageCases = []struct {
	name string
	pg   PageID
}{{"hole", 1}, {"frame", 2}, {"pastEOF", 3}}

// BenchmarkReadPage measures one page fault's read on the file backend:
// a hole (what nearly every fault of a run reads), a written frame (CRC
// check), and a slot past the end of the file (a short read).
func BenchmarkReadPage(b *testing.B) {
	fb := readPageBackend(b)
	for _, c := range readPageCases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fb.ReadPage(c.pg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
