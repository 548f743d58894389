package lock

import (
	"testing"

	"oodb/internal/model"
)

// BenchmarkAcquireRelease measures uncontended lock traffic.
func BenchmarkAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	m := NewManager()
	held := make([]Request, 1)
	for i := 0; i < b.N; i++ {
		txn := i
		held[0] = Request{model.ObjectID(1 + i%512), Exclusive}
		if _, err := m.Acquire(txn, held[0].Obj, held[0].Mode, nil); err != nil {
			b.Fatal(err)
		}
		m.Release(txn, held)
	}
}

// BenchmarkContendedQueue measures grant hand-off under conflict.
func BenchmarkContendedQueue(b *testing.B) {
	b.ReportAllocs()
	m := NewManager()
	const obj = model.ObjectID(1)
	held := []Request{{obj, Exclusive}}
	m.Acquire(0, obj, Exclusive, nil) //nolint:errcheck
	prev := 0
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		txn := i
		if _, err := m.Acquire(txn, obj, Exclusive, func() {}); err != nil {
			b.Fatal(err)
		}
		m.Release(prev, held) // hands the lock to txn
		prev = txn
	}
	m.Release(prev, held)
}
