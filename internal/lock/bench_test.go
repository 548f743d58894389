package lock

import (
	"testing"

	"oodb/internal/model"
)

// BenchmarkAcquireRelease measures uncontended lock traffic.
func BenchmarkAcquireRelease(b *testing.B) {
	b.ReportAllocs()
	m := NewManager()
	for i := 0; i < b.N; i++ {
		txn := i
		obj := model.ObjectID(1 + i%512)
		if _, err := m.Acquire(txn, obj, Exclusive, nil); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
}

// BenchmarkContendedQueue measures grant hand-off under conflict.
func BenchmarkContendedQueue(b *testing.B) {
	b.ReportAllocs()
	m := NewManager()
	const obj = model.ObjectID(1)
	m.Acquire(0, obj, Exclusive, nil) //nolint:errcheck
	prev := 0
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		txn := i
		if _, err := m.Acquire(txn, obj, Exclusive, func() {}); err != nil {
			b.Fatal(err)
		}
		m.ReleaseAll(prev) // hands the lock to txn
		prev = txn
	}
	m.ReleaseAll(prev)
}
