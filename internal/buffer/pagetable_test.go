package buffer

import (
	"testing"

	"oodb/internal/storage"
)

func TestPageTable(t *testing.T) {
	var tab PageTable[int32]
	if tab.Get(7) != 0 || tab.Len() != 0 {
		t.Fatal("an empty table must read zero everywhere")
	}
	// Storing the zero value past the end is what the table already reads
	// there: it must not grow (a faulty policy's far-off victim would
	// otherwise size the table to its ID).
	tab.Set(1<<20, 0)
	if tab.Len() != 0 {
		t.Fatalf("storing zero past the end grew the table to %d", tab.Len())
	}
	tab.Set(5, 3)
	if tab.Get(5) != 3 || tab.Get(4) != 0 || tab.Get(6) != 0 || tab.Len() != 6 {
		t.Fatalf("after Set(5, 3): Get(4..6) = %d %d %d, Len %d", tab.Get(4), tab.Get(5), tab.Get(6), tab.Len())
	}
	for pg := storage.PageID(6); pg <= 40; pg++ {
		tab.Set(pg, int32(pg))
	}
	for pg := storage.PageID(6); pg <= 40; pg++ {
		if tab.Get(pg) != int32(pg) {
			t.Fatalf("Get(%d) = %d after growing", pg, tab.Get(pg))
		}
	}
	if tab.Get(5) != 3 {
		t.Fatal("growing lost an earlier entry")
	}
	tab.Set(5, 0)
	if tab.Get(5) != 0 {
		t.Fatal("clearing an entry did not take")
	}
}
