package buffer

import (
	"slices"

	"oodb/internal/storage"
)

// PageTable maps page IDs to values of T. Page IDs are dense — a store
// numbers its pages 1, 2, 3, … — so the table is a slice indexed by page
// ID: a lookup is one bounds check and one load, where a Go map hashes and
// probes. IDs past the end read as the zero value, and the table grows only
// when a non-zero value is stored there, so the zero value of T is the
// table's "absent" and the zero PageTable is an empty table ready for use.
type PageTable[T comparable] struct {
	s []T
}

// Get returns pg's value, or the zero value if none was stored.
func (t *PageTable[T]) Get(pg storage.PageID) T {
	if int(pg) < len(t.s) {
		return t.s[pg]
	}
	var zero T
	return zero
}

// Set stores v for pg, growing the table when pg lies past its end. Storing
// the zero value past the end is a no-op: it is what the table already
// reads there.
func (t *PageTable[T]) Set(pg storage.PageID, v T) {
	if int(pg) >= len(t.s) {
		var zero T
		if v == zero {
			return
		}
		t.grow(int(pg) + 1)
	}
	t.s[pg] = v
}

// grow extends the table to at least n entries, at least doubling it so a
// run of ascending page IDs costs amortised O(1) per page.
func (t *PageTable[T]) grow(n int) {
	if n <= cap(t.s) {
		t.s = t.s[:n]
		return
	}
	s := make([]T, n, max(n, 2*cap(t.s)))
	copy(s, t.s)
	t.s = s
}

// Clone returns an independent copy of t.
func (t *PageTable[T]) Clone() PageTable[T] { return PageTable[T]{s: slices.Clone(t.s)} }

// Len returns one past the highest page ID the table has room for; every
// page at or beyond it reads as the zero value.
func (t *PageTable[T]) Len() int { return len(t.s) }
