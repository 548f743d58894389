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
