package buffer

import (
	"cmp"
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

// fuzzTarget is the surface FuzzPool drives on Pool, ConcurrentPool and a
// View beside its eager twin.
type fuzzTarget interface {
	Frames
	Resident() int
	Stats() Stats
	FlushDirty() error
	SetPageIO(io storage.PageIO)
}

// dirtyOf reports whether p holds pg dirty, reading a ConcurrentPool's
// shard in-package (the pool exports no dirty probe).
func dirtyOf(t *testing.T, p fuzzTarget, pg storage.PageID) bool {
	t.Helper()
	switch p := p.(type) {
	case *Pool:
		return p.IsDirty(pg)
	case *ConcurrentPool:
		return p.shardFor(pg).IsDirty(pg)
	case *viewTwin:
		d := dirtyOf(t, p.v.p, pg)
		if twin := dirtyOf(t, p.twin, pg); d != twin {
			t.Fatalf("page %d: dirty %v through the view, %v on the eager twin", pg, d, twin)
		}
		return d
	}
	t.Fatalf("no dirty probe for %T", p)
	return false
}

// fuzzShape is how a target splits its frames: shard(pg) names the shard a
// fault of pg evicts from, quota its frame count, and ghosts[i] every
// ghost-wrapped policy shard i's faults consult (one per pool).
type fuzzShape struct {
	shard  func(storage.PageID) int
	quota  []int
	ghosts [][]*ghostPolicy
}

// oneShard is the shape of a Pool: one shard, whose faults consult ghost.
func oneShard(ghost *ghostPolicy) fuzzShape {
	return fuzzShape{
		shard:  func(storage.PageID) int { return 0 },
		quota:  []int{fuzzFrames},
		ghosts: [][]*ghostPolicy{{ghost}},
	}
}

// refFrames is the reference frame table FuzzPool checks the pool against:
// a map of resident pages to their dirty flags and the statistics the
// pool should have counted.
type refFrames struct {
	fuzzShape
	dirty map[storage.PageID]bool
	stats Stats
}

// full reports whether shard i holds its quota.
func (r *refFrames) full(i int) bool {
	n := 0
	for q := range r.dirty {
		if r.shard(q) == i {
			n++
		}
	}
	return n >= r.quota[i]
}

// admit applies a fault's AccessResult to the reference: the victim must
// have been resident in pg's shard (or be the ghost), and an eviction
// happens exactly when that shard was full.
func (r *refFrames) admit(t *testing.T, pg storage.PageID, res AccessResult, ghost bool) {
	t.Helper()
	if full := r.full(r.shard(pg)); (res.Victim != storage.NilPage) != full {
		t.Fatalf("page %d: victim %d, shard full %v", pg, res.Victim, full)
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
	if ok && r.shard(res.Victim) != r.shard(pg) {
		t.Fatalf("page %d evicted %d from another shard", pg, res.Victim)
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
		if c, cd := p.Contains(pg), dirtyOf(t, p, pg); c != ok || cd != d {
			t.Fatalf("page %d: Contains=%v dirty=%v, reference resident=%v dirty=%v",
				pg, c, cd, ok, d)
		}
	}
	if p.Contains(ghostPage) {
		t.Fatal("the ghost victim is resident")
	}
}

// runPoolOps drives p through ops, two bytes a step (operation, page),
// checking it against a reference after every step. shape names the
// policy wrappers p's replacement decisions go through.
func runPoolOps(t *testing.T, p fuzzTarget, shape fuzzShape, ops []byte) {
	io := &fakePageIO{}
	p.SetPageIO(io)
	ref := &refFrames{fuzzShape: shape, dirty: map[storage.PageID]bool{}}
	for i := 0; i+1 < len(ops); i += 2 {
		pg := storage.PageID(1 + int(ops[i+1])%fuzzPages)
		_, resident := ref.dirty[pg]
		// A fault past a full shard consults the shard's policy, which
		// names the ghost if it is armed.
		sh := shape.shard(pg)
		ghosted := shape.ghosts[sh][0].armed && !resident && ref.full(sh)
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
		case 6: // FlushDirty writes each shard's dirty pages in ascending order
			var want []storage.PageID
			for q, d := range ref.dirty {
				if d {
					want = append(want, q)
					ref.dirty[q] = false
				}
			}
			slices.SortFunc(want, func(a, b storage.PageID) int {
				return cmp.Or(cmp.Compare(shape.shard(a), shape.shard(b)), cmp.Compare(a, b))
			})
			_, before := io.snapshot()
			if err := p.FlushDirty(); err != nil {
				t.Fatalf("FlushDirty: %v", err)
			}
			_, after := io.snapshot()
			if got := after[len(before):]; !slices.Equal(got, want) {
				t.Fatalf("FlushDirty wrote %v, want %v", got, want)
			}
		case 7: // every shard's next eviction names a never-resident victim
			for _, gs := range shape.ghosts {
				for _, g := range gs {
					g.armed = true
				}
			}
		}
		ref.check(t, p)
	}
}

// viewTwin drives a View over one ConcurrentPool and, call for call, the
// same operations on an eager twin pool no view fronts, failing at the
// first answer, victim or statistic that differs: one view must be exact.
// Its probes read the pools directly, since a view's own Contains would
// drain the touches the fuzzer means to let pile up.
type viewTwin struct {
	t    *testing.T
	v    *View
	twin *ConcurrentPool
}

func (w *viewTwin) Access(pg storage.PageID) (AccessResult, error) {
	return w.fault("Access", pg, w.v.Access, w.twin.Access)
}

func (w *viewTwin) Install(pg storage.PageID) (AccessResult, error) {
	return w.fault("Install", pg, w.v.Install, w.twin.Install)
}

func (w *viewTwin) fault(op string, pg storage.PageID, view, twin func(storage.PageID) (AccessResult, error)) (AccessResult, error) {
	w.t.Helper()
	res, err := view(pg)
	want, werr := twin(pg)
	if res != want || (err == nil) != (werr == nil) {
		w.t.Fatalf("%s(%d): view %+v %v, eager %+v %v", op, pg, res, err, want, werr)
	}
	return res, err
}

func (w *viewTwin) MarkDirty(pg storage.PageID) error {
	w.t.Helper()
	err, werr := w.v.MarkDirty(pg), w.twin.MarkDirty(pg)
	if (err == nil) != (werr == nil) {
		w.t.Fatalf("MarkDirty(%d): view %v, eager %v", pg, err, werr)
	}
	return err
}

func (w *viewTwin) Boost(pg storage.PageID) bool {
	w.t.Helper()
	ok, want := w.v.Boost(pg), w.twin.Boost(pg)
	if ok != want {
		w.t.Fatalf("Boost(%d): view %v, eager %v", pg, ok, want)
	}
	return ok
}

func (w *viewTwin) Contains(pg storage.PageID) bool {
	w.t.Helper()
	ok, want := w.v.p.Contains(pg), w.twin.Contains(pg)
	if ok != want {
		w.t.Fatalf("Contains(%d): view's pool %v, eager %v", pg, ok, want)
	}
	return ok
}

func (w *viewTwin) Resident() int {
	w.t.Helper()
	n, want := w.v.p.Resident(), w.twin.Resident()
	if n != want {
		w.t.Fatalf("Resident: view's pool %d, eager %d", n, want)
	}
	return n
}

// Stats counts the view's pending touches as the hits they will be.
func (w *viewTwin) Stats() Stats {
	w.t.Helper()
	s := w.v.p.Stats()
	for _, q := range w.v.pending {
		s.Hits += q.n
	}
	if want := w.twin.Stats(); s != want {
		w.t.Fatalf("Stats: view %+v, eager %+v", s, want)
	}
	return s
}

func (w *viewTwin) FlushDirty() error {
	w.t.Helper()
	err, werr := w.v.p.FlushDirty(), w.twin.FlushDirty()
	if (err == nil) != (werr == nil) {
		w.t.Fatalf("FlushDirty: view's pool %v, eager %v", err, werr)
	}
	return err
}

// SetPageIO gives the view's pool io and the twin a device that fails
// its reads whenever io does and records nothing, so io's write log stays
// the view side's alone.
func (w *viewTwin) SetPageIO(io storage.PageIO) {
	w.v.p.SetPageIO(io)
	w.twin.SetPageIO(twinIO{io.(*fakePageIO)})
}

// twinIO mirrors a fakePageIO's injected read failure.
type twinIO struct{ f *fakePageIO }

func (w twinIO) ReadPage(storage.PageID) error {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	return w.f.failRead
}

func (twinIO) WritePage(storage.PageID) error { return nil }

// ghostLRUs returns n LRU policies, each behind a ghost wrapper.
func ghostLRUs(t *testing.T, n int) ([]Policy, []*ghostPolicy) {
	ps, gs := make([]Policy, n), make([]*ghostPolicy, n)
	for i := range ps {
		pol, err := NewPolicyByName("lru", PolicyConfig{Frames: ShardCapacity(fuzzFrames, n, i)})
		if err != nil {
			t.Fatal(err)
		}
		gs[i] = &ghostPolicy{Policy: pol}
		ps[i] = gs[i]
	}
	return ps, gs
}

// runViewOps drives ops through one view over an n-shard ConcurrentPool
// beside its eager twin, then drains the view: the statistics must then
// agree without counting anything pending.
func runViewOps(t *testing.T, n int, ops []byte) {
	vps, vgs := ghostLRUs(t, n)
	tps, tgs := ghostLRUs(t, n)
	vp, err := NewConcurrentPool(fuzzFrames, vps)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewConcurrentPool(fuzzFrames, tps)
	if err != nil {
		t.Fatal(err)
	}
	w := &viewTwin{t: t, v: vp.NewView(), twin: twin}
	shape := fuzzShape{shard: vp.shardIndex, quota: make([]int, n), ghosts: make([][]*ghostPolicy, n)}
	for i := range shape.quota {
		shape.quota[i] = ShardCapacity(fuzzFrames, n, i)
		shape.ghosts[i] = []*ghostPolicy{vgs[i], tgs[i]}
	}
	runPoolOps(t, w, shape, ops)
	w.v.Drain()
	if s, want := vp.Stats(), twin.Stats(); s != want {
		t.Fatalf("%d shards: drained view's Stats %+v, eager %+v", n, s, want)
	}
	if l := w.v.stamps.Len(); l > fuzzPages+1 {
		t.Fatalf("%d shards: stamp table grew to %d entries for %d pages", n, l, fuzzPages)
	}
	for _, p := range []*ConcurrentPool{vp, twin} {
		for i := range p.shards {
			if l := p.shards[i].frames.Len(); l > fuzzPages+1 {
				t.Fatalf("%d shards: shard %d's frame table grew to %d entries for %d pages", n, i, l, fuzzPages)
			}
		}
	}
}

// FuzzPool drives a Pool under every policy registered in this package
// (the context-sensitive policy registers from internal/core and has its
// own FuzzContextPolicy there), then the same sequence through one View
// over a one-shard and a two-shard ConcurrentPool beside eager twins,
// against an in-test map model of the frame table: residency, dirty
// flags, statistics, Boost's answer, victim choice, and the pages
// FlushDirty writes.
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
			runPoolOps(t, p, oneShard(ghost), ops)
			if n := p.frames.Len(); n > fuzzPages+1 {
				t.Fatalf("%s: frame table grew to %d entries for %d pages", name, n, fuzzPages)
			}
		}
		for _, n := range []int{1, 2} {
			runViewOps(t, n, ops)
		}
	})
}
