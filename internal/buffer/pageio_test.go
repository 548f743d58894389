package buffer

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"oodb/internal/storage"
)

// fakePageIO records every physical transfer the pool requests, with
// optional injected failures. Safe for concurrent use.
type fakePageIO struct {
	mu       sync.Mutex
	reads    []storage.PageID
	writes   []storage.PageID
	failRead error
	failWrit error
}

func (f *fakePageIO) ReadPage(pg storage.PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failRead != nil {
		return f.failRead
	}
	f.reads = append(f.reads, pg)
	return nil
}

func (f *fakePageIO) WritePage(pg storage.PageID) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failWrit != nil {
		return f.failWrit
	}
	f.writes = append(f.writes, pg)
	return nil
}

func (f *fakePageIO) snapshot() (reads, writes []storage.PageID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]storage.PageID(nil), f.reads...), append([]storage.PageID(nil), f.writes...)
}

// poolSeam abstracts the surface shared by Pool and ConcurrentPool, so the
// PageIO behavioral suite runs against both.
type poolSeam interface {
	Access(pg storage.PageID) (AccessResult, error)
	Install(pg storage.PageID) (AccessResult, error)
	MarkDirty(pg storage.PageID) error
	FlushDirty() error
	SetPageIO(io storage.PageIO)
	Contains(pg storage.PageID) bool
}

func pageIOPools(t *testing.T) map[string]func(capacity int) poolSeam {
	t.Helper()
	return map[string]func(capacity int) poolSeam{
		"pool": func(capacity int) poolSeam {
			return NewPool(capacity, NewLRU())
		},
		"concurrent": func(capacity int) poolSeam {
			policies := []Policy{NewLRU()}
			p, err := NewConcurrentPool(capacity, policies)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

// The pool's physical contract: a miss reads, a dirty eviction writes
// first, a clean eviction writes nothing, and Install never reads.
func TestPageIOTransferContract(t *testing.T) {
	for name, mk := range pageIOPools(t) {
		t.Run(name, func(t *testing.T) {
			io := &fakePageIO{}
			p := mk(2)
			p.SetPageIO(io)

			// Install is not a fetch: freshly allocated pages have no disk
			// image.
			if _, err := p.Install(1); err != nil {
				t.Fatal(err)
			}
			if reads, _ := io.snapshot(); len(reads) != 0 {
				t.Fatalf("Install read %v, want none", reads)
			}
			// A miss is a fetch.
			if _, err := p.Access(2); err != nil {
				t.Fatal(err)
			}
			if reads, _ := io.snapshot(); len(reads) != 1 || reads[0] != 2 {
				t.Fatalf("miss reads = %v, want [2]", reads)
			}
			// A hit transfers nothing.
			if _, err := p.Access(2); err != nil {
				t.Fatal(err)
			}
			if reads, writes := io.snapshot(); len(reads) != 1 || len(writes) != 0 {
				t.Fatalf("hit caused I/O: reads=%v writes=%v", reads, writes)
			}
			// Evicting a clean page writes nothing.
			if _, err := p.Access(3); err != nil {
				t.Fatal(err)
			}
			if _, writes := io.snapshot(); len(writes) != 0 {
				t.Fatalf("clean eviction wrote %v", writes)
			}
			// Evicting a dirty page writes it back before the slot is reused.
			if err := p.MarkDirty(2); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Access(4); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Access(5); err != nil {
				t.Fatal(err)
			}
			_, writes := io.snapshot()
			if len(writes) != 1 || writes[0] != 2 {
				t.Fatalf("dirty eviction writes = %v, want [2]", writes)
			}
		})
	}
}

// FlushDirty writes exactly the dirty residents and leaves them clean.
func TestPageIOFlushDirty(t *testing.T) {
	for name, mk := range pageIOPools(t) {
		t.Run(name, func(t *testing.T) {
			io := &fakePageIO{}
			p := mk(4)
			p.SetPageIO(io)
			for pg := storage.PageID(1); pg <= 4; pg++ {
				if _, err := p.Install(pg); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.MarkDirty(1); err != nil {
				t.Fatal(err)
			}
			if err := p.MarkDirty(3); err != nil {
				t.Fatal(err)
			}
			if err := p.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			_, writes := io.snapshot()
			sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
			if fmt.Sprint(writes) != "[1 3]" {
				t.Fatalf("FlushDirty wrote %v, want [1 3]", writes)
			}
			// A second flush finds nothing dirty.
			if err := p.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if _, writes := io.snapshot(); len(writes) != 2 {
				t.Fatalf("second FlushDirty wrote again: %v", writes)
			}
		})
	}
}

// I/O errors surface to the caller instead of being swallowed.
func TestPageIOErrorsPropagate(t *testing.T) {
	bang := errors.New("disk on fire")
	for name, mk := range pageIOPools(t) {
		t.Run(name, func(t *testing.T) {
			io := &fakePageIO{failRead: bang}
			p := mk(2)
			p.SetPageIO(io)
			if _, err := p.Access(1); !errors.Is(err, bang) {
				t.Fatalf("miss read error = %v, want wrapped %v", err, bang)
			}
			// The frame never received its image, so the page must not stay
			// resident: the retry is a miss that reads again.
			if p.Contains(1) {
				t.Fatal("page resident after its read failed")
			}
			io.failRead = nil
			if res, err := p.Access(1); err != nil || res.Hit {
				t.Fatalf("retry after failed read: hit=%v err=%v, want a miss", res.Hit, err)
			}
			if reads, _ := io.snapshot(); len(reads) != 1 || reads[0] != 1 {
				t.Fatalf("retry reads = %v, want [1]", reads)
			}
			if _, err := p.Access(2); err != nil {
				t.Fatal(err)
			}
			if err := p.MarkDirty(2); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Install(3); err != nil {
				t.Fatal(err)
			}
			io.failWrit = bang
			// Next eviction must pick the dirty page eventually; drive
			// accesses until a dirty eviction is attempted.
			var evictErr error
			for pg := storage.PageID(10); pg < 20; pg++ {
				if _, evictErr = p.Access(pg); evictErr != nil {
					break
				}
			}
			if !errors.Is(evictErr, bang) {
				t.Fatalf("dirty-eviction write error = %v, want wrapped %v", evictErr, bang)
			}
			io.failWrit = bang
			if err := p.FlushDirty(); err != nil && !errors.Is(err, bang) {
				t.Fatalf("FlushDirty error = %v, want wrapped %v or nil", err, bang)
			}
		})
	}
}

// Without a PageIO backend the pool is a pure counting model: the same
// access stream yields the same statistics whether or not I/O is installed.
func TestPageIONilIsCountingModel(t *testing.T) {
	run := func(io storage.PageIO) Stats {
		p := NewPool(3, NewLRU())
		if io != nil {
			p.SetPageIO(io)
		}
		for i := 0; i < 40; i++ {
			pg := storage.PageID(1 + i%5)
			if _, err := p.Access(pg); err != nil {
				panic(err)
			}
			if i%4 == 0 {
				p.MarkDirty(pg) //nolint:errcheck // just accessed, resident
			}
		}
		return p.Stats()
	}
	bare := run(nil)
	wired := run(&fakePageIO{})
	if bare != wired {
		t.Fatalf("stats diverge: bare=%+v wired=%+v", bare, wired)
	}
}

// Concurrent faults through the sharded pool keep the transfer contract
// under race: every miss reads, and the pool survives -race.
func TestConcurrentPageIOStress(t *testing.T) {
	io := &fakePageIO{}
	policies := make([]Policy, 4)
	for i := range policies {
		var err error
		policies[i], err = NewPolicyByName("lru", PolicyConfig{Frames: ShardCapacity(64, 4, i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewConcurrentPool(64, policies)
	if err != nil {
		t.Fatal(err)
	}
	p.SetPageIO(io)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				pg := storage.PageID(1 + (w*131+i*17)%200)
				if _, err := p.Access(pg); err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 {
					p.MarkDirty(pg) //nolint:errcheck // may have been evicted already
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	reads, _ := io.snapshot()
	if len(reads) == 0 {
		t.Fatal("no physical reads under a 200-page working set in 64 frames")
	}
}
