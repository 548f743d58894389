package buffer

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"oodb/internal/storage"
)

// fuzzPages is how many distinct pages FuzzPool touches, and fuzzFrames
// the pool's capacity: small enough that most sequences evict.
const (
	fuzzPages  = 24
	fuzzFrames = 5
)

// ghostPage is the victim a ghostPolicy names: a page no step makes
// resident, far past every real one.
const ghostPage = storage.PageID(1 << 20)

// ghostPolicy wraps a policy and, when armed, names ghostPage as the next
// victim — the faulty-policy case the pool must survive without counting
// the ghost out of residency or growing its frame table to the ghost's ID.
type ghostPolicy struct {
	Policy
	armed bool
}

func (g *ghostPolicy) Victim() (storage.PageID, bool) {
	if g.armed {
		g.armed = false
		return ghostPage, true
	}
	return g.Policy.Victim()
}

// fuzzTarget is the surface FuzzPool drives on Pool and ConcurrentPool.
type fuzzTarget interface {
	Frames
	IsDirty(pg storage.PageID) bool
	Resident() int
	Stats() Stats
	FlushDirty() error
	SetPageIO(io storage.PageIO)
}

// refFrames is the reference frame table FuzzPool checks the pool against:
// a map of resident pages to their dirty flags and the statistics the
// pool should have counted.
type refFrames struct {
	dirty map[storage.PageID]bool
	stats Stats
}

// admit applies a fault's AccessResult to the reference: the victim must
// have been resident (or be the ghost), and an eviction happens exactly
// when the pool was full.
func (r *refFrames) admit(t *testing.T, pg storage.PageID, res AccessResult, ghost bool) {
	t.Helper()
	full := len(r.dirty) >= fuzzFrames
	if (res.Victim != storage.NilPage) != full {
		t.Fatalf("page %d: victim %d with %d of %d frames in use", pg, res.Victim, len(r.dirty), fuzzFrames)
	}
	if res.Victim == storage.NilPage {
		return
	}
	if ghost != (res.Victim == ghostPage) {
		t.Fatalf("page %d: victim %d, ghost armed %v", pg, res.Victim, ghost)
	}
	d, ok := r.dirty[res.Victim]
	if !ok && !ghost {
		t.Fatalf("victim %d was not resident", res.Victim)
	}
	if res.VictimDirty != d {
		t.Fatalf("victim %d reported dirty=%v, was %v", res.Victim, res.VictimDirty, d)
	}
	r.stats.Evictions++
	if d {
		r.stats.Flushes++
	}
	delete(r.dirty, res.Victim)
}

// check compares every observable of p with the reference.
func (r *refFrames) check(t *testing.T, p fuzzTarget) {
	t.Helper()
	if p.Resident() != len(r.dirty) {
		t.Fatalf("Resident()=%d, reference holds %d", p.Resident(), len(r.dirty))
	}
	if p.Stats() != r.stats {
		t.Fatalf("Stats()=%+v, reference %+v", p.Stats(), r.stats)
	}
	for pg := storage.PageID(1); pg <= fuzzPages; pg++ {
		d, ok := r.dirty[pg]
		if p.Contains(pg) != ok || p.IsDirty(pg) != d {
			t.Fatalf("page %d: Contains=%v IsDirty=%v, reference resident=%v dirty=%v",
				pg, p.Contains(pg), p.IsDirty(pg), ok, d)
		}
	}
	if p.Contains(ghostPage) {
		t.Fatal("the ghost victim is resident")
	}
}

// runPoolOps drives p through ops, two bytes a step (operation, page),
// checking it against a reference after every step. ghost is the policy
// wrapper p's replacement decisions go through.
func runPoolOps(t *testing.T, p fuzzTarget, ghost *ghostPolicy, ops []byte) {
	io := &fakePageIO{}
	p.SetPageIO(io)
	ref := &refFrames{dirty: map[storage.PageID]bool{}}
	for i := 0; i+1 < len(ops); i += 2 {
		pg := storage.PageID(1 + int(ops[i+1])%fuzzPages)
		_, resident := ref.dirty[pg]
		// A fault past a full pool consults the policy, which names the
		// ghost if it is armed.
		ghosted := ghost.armed && !resident && len(ref.dirty) >= fuzzFrames
		switch op := ops[i] % 9; op {
		case 0, 1, 2, 8: // Access; Install; Access whose read fails
			fault, read := p.Access, op != 2
			if !read {
				fault = p.Install
			}
			if op == 8 {
				io.failRead = errors.New("injected read failure")
			}
			res, err := fault(pg)
			io.failRead = nil
			if res.Hit != resident || (err != nil) != (op == 8 && !resident) {
				t.Fatalf("op %d on page %d: %+v %v, reference resident=%v", op, pg, res, err, resident)
			}
			if resident {
				ref.stats.Hits++
				break
			}
			if read {
				ref.stats.Misses++
			}
			ref.admit(t, pg, res, ghosted)
			if err == nil {
				ref.dirty[pg] = false
			}
		case 3: // MarkDirty
			if err := p.MarkDirty(pg); (err == nil) != resident {
				t.Fatalf("MarkDirty(%d) = %v, reference resident=%v", pg, err, resident)
			}
			if resident {
				ref.dirty[pg] = true
			}
		// Op 4 changes nothing: the step only re-checks the pool.
		case 5: // Boost
			if got := p.Boost(pg); got != resident {
				t.Fatalf("Boost(%d) = %v, reference resident=%v", pg, got, resident)
			}
			if resident {
				ref.stats.Boosts++
			}
		case 6: // FlushDirty writes the dirty pages in ascending order
			var want []storage.PageID
			for q, d := range ref.dirty {
				if d {
					want = append(want, q)
					ref.dirty[q] = false
				}
			}
			slices.Sort(want)
			_, before := io.snapshot()
			if err := p.FlushDirty(); err != nil {
				t.Fatalf("FlushDirty: %v", err)
			}
			_, after := io.snapshot()
			if got := after[len(before):]; !slices.Equal(got, want) {
				t.Fatalf("FlushDirty wrote %v, want %v", got, want)
			}
		case 7: // the next eviction names a never-resident victim
			ghost.armed = true
		}
		ref.check(t, p)
	}
}

// FuzzPool drives a Pool under every policy registered in this package
// (the context-sensitive policy registers from internal/core and has its
// own FuzzContextPolicy there), then the same sequence through a
// one-shard ConcurrentPool, against an in-test map model of the frame
// table: residency, dirty flags, statistics, Boost's answer, victim
// choice, and the pages FlushDirty writes.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 2, 0, 3, 0, 4, 0, 5, 0, 6, 5, 2, 6, 0})
	f.Add([]byte{2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 7, 0, 0, 9, 0, 10, 3, 10, 6, 0})
	f.Add([]byte{0, 1, 3, 1, 4, 1, 0, 2, 0, 3, 0, 4, 0, 5, 8, 6, 8, 1, 5, 6, 5, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 9, 3, 9, 3, 1, 3, 2, 4, 2, 6, 0, 3, 1, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		for _, name := range PolicyNames() {
			cfg := PolicyConfig{
				Frames: fuzzFrames,
				RNG:    func() *rand.Rand { return rand.New(rand.NewSource(1)) },
			}
			pol, err := NewPolicyByName(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ghost := &ghostPolicy{Policy: pol}
			p := NewPool(fuzzFrames, ghost)
			runPoolOps(t, p, ghost, ops)
			if n := p.frames.Len(); n > fuzzPages+1 {
				t.Fatalf("%s: frame table grew to %d entries for %d pages", name, n, fuzzPages)
			}
			if name != "lru" {
				continue
			}
			pol, _ = NewPolicyByName(name, cfg)
			ghost = &ghostPolicy{Policy: pol}
			cp, err := NewConcurrentPool(fuzzFrames, []Policy{ghost})
			if err != nil {
				t.Fatal(err)
			}
			runPoolOps(t, cp, ghost, ops)
			if n := cp.shards[0].frames.Len(); n > fuzzPages+1 {
				t.Fatalf("concurrent %s: frame table grew to %d entries for %d pages", name, n, fuzzPages)
			}
		}
	})
}
