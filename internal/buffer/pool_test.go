package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oodb/internal/storage"
)

func TestPoolHitMissFlush(t *testing.T) {
	p := NewPool(2, NewLRU())
	r1, err := p.Access(1)
	if err != nil || r1.Hit {
		t.Fatalf("first access: %+v %v", r1, err)
	}
	r2, _ := p.Access(1)
	if !r2.Hit {
		t.Fatal("second access should hit")
	}
	p.Access(2) //nolint:errcheck
	if err := p.MarkDirty(2); err != nil {
		t.Fatal(err)
	}
	// Pool is full; page 1 is LRU (accessed earlier... actually page 1 was
	// touched twice, page 2 once, so LRU is page 2? No: page 2 was touched
	// most recently. Victim = page 1 (clean).
	r3, _ := p.Access(3)
	if r3.Hit || r3.Victim != 1 || r3.VictimDirty {
		t.Fatalf("eviction of clean LRU page expected: %+v", r3)
	}
	// Now resident: {2 (dirty), 3}. Access 4 evicts 2, which is dirty.
	r4, _ := p.Access(4)
	if r4.Victim != 2 || !r4.VictimDirty {
		t.Fatalf("dirty victim expected: %+v", r4)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 4 || st.Evictions != 2 || st.Flushes != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if hr := st.HitRatio(); hr != 0.2 {
		t.Fatalf("hit ratio %v", hr)
	}
}

func TestPoolNilPage(t *testing.T) {
	p := NewPool(2, NewLRU())
	if _, err := p.Access(storage.NilPage); err == nil {
		t.Fatal("access to nil page must fail")
	}
	if _, err := p.Install(storage.NilPage); err == nil {
		t.Fatal("install of nil page must fail")
	}
}

func TestInstallNoRead(t *testing.T) {
	p := NewPool(1, NewLRU())
	p.Access(1)    //nolint:errcheck
	p.MarkDirty(1) //nolint:errcheck
	res, err := p.Install(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || res.Victim != 1 || !res.VictimDirty {
		t.Fatalf("install should evict dirty victim: %+v", res)
	}
	res2, _ := p.Install(2)
	if !res2.Hit {
		t.Fatal("installing a resident page is a hit")
	}
}

func TestDirtyLifecycle(t *testing.T) {
	p := NewPool(2, NewLRU())
	p.Access(1) //nolint:errcheck
	if p.IsDirty(1) {
		t.Fatal("fresh page dirty")
	}
	if err := p.MarkDirty(1); err != nil {
		t.Fatal(err)
	}
	if !p.IsDirty(1) {
		t.Fatal("MarkDirty lost")
	}
	if err := p.MarkDirty(9); err == nil {
		t.Fatal("MarkDirty on non-resident page must fail")
	}
}

// forgetful is a policy that tracks nothing, so it can name no victim.
type forgetful struct{ LRU }

func (*forgetful) Victim() (storage.PageID, bool) { return storage.NilPage, false }

// A full pool whose policy names no victim refuses the fault instead of
// growing past capacity.
func TestNoVictimIsAnError(t *testing.T) {
	p := NewPool(1, &forgetful{LRU: *NewLRU()})
	if _, err := p.Access(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Access(2); err == nil {
		t.Fatal("fault on a full pool with no victim succeeded")
	}
	if p.Contains(2) || p.Resident() != 1 {
		t.Fatalf("pool admitted past capacity: %d resident", p.Resident())
	}
}

func TestBoostNonResidentIgnored(t *testing.T) {
	p := NewPool(2, NewLRU())
	p.Boost(5) // not resident: no-op
	if p.Stats().Boosts != 0 {
		t.Fatal("boost of non-resident page counted")
	}
	p.Access(5) //nolint:errcheck
	p.Boost(5)
	if p.Stats().Boosts != 1 {
		t.Fatal("boost not counted")
	}
}

func TestLRUVictimOrder(t *testing.T) {
	l := NewLRU()
	p := NewPool(3, l)
	p.Access(1) //nolint:errcheck
	p.Access(2) //nolint:errcheck
	p.Access(3) //nolint:errcheck
	p.Access(1) //nolint:errcheck — 1 becomes MRU
	res, _ := p.Access(4)
	if res.Victim != 2 {
		t.Fatalf("victim=%d, want 2", res.Victim)
	}
	// Boost acts as a touch under LRU.
	p.Boost(3)
	res, _ = p.Access(5)
	if res.Victim != 1 {
		t.Fatalf("victim=%d, want 1 (3 was boosted)", res.Victim)
	}
	if l.Len() != 3 {
		t.Fatalf("lru len=%d", l.Len())
	}
}

// LRU reference model: the pool+LRU must evict exactly what a straightforward
// recency list would.
func TestLRUMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 8
		p := NewPool(cap, NewLRU())
		var ref []storage.PageID // front = LRU
		refTouch := func(pg storage.PageID) (evicted storage.PageID) {
			for i, x := range ref {
				if x == pg {
					ref = append(append(append([]storage.PageID{}, ref[:i]...), ref[i+1:]...), pg)
					return storage.NilPage
				}
			}
			if len(ref) == cap {
				evicted = ref[0]
				ref = ref[1:]
			}
			ref = append(ref, pg)
			return evicted
		}
		for i := 0; i < 500; i++ {
			pg := storage.PageID(1 + rng.Intn(20))
			want := refTouch(pg)
			got, err := p.Access(pg)
			if err != nil {
				return false
			}
			if got.Victim != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomPolicyBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRandom(rng, 4)
	p := NewPool(4, r)
	for pg := storage.PageID(1); pg <= 4; pg++ {
		p.Access(pg) //nolint:errcheck
	}
	if r.Len() != 4 {
		t.Fatalf("tracked=%d", r.Len())
	}
	// Victim is always a resident page.
	for i := 0; i < 50; i++ {
		res, err := p.Access(storage.PageID(10 + i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Victim == storage.NilPage {
			t.Fatal("eviction expected")
		}
		if p.Contains(res.Victim) {
			t.Fatal("victim still resident")
		}
	}
}

func TestRandomBoostProtection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRandom(rng, 1000) // effectively permanent protection
	p := NewPool(4, r)
	for pg := storage.PageID(1); pg <= 4; pg++ {
		p.Access(pg) //nolint:errcheck
	}
	p.Boost(1)
	p.Boost(2)
	p.Boost(3)
	// With 1,2,3 protected, victims must be 4 then (all protected) fall back.
	res, _ := p.Access(5)
	if res.Victim != 4 {
		t.Fatalf("victim=%d, want unprotected 4", res.Victim)
	}
	// Now 1,2,3 protected and 5 unprotected.
	res, _ = p.Access(6)
	if res.Victim != 5 {
		t.Fatalf("victim=%d, want unprotected 5", res.Victim)
	}
	// All remaining protected: protection is waived rather than deadlocking.
	p.Boost(6)
	res, _ = p.Access(7)
	if res.Victim == storage.NilPage {
		t.Fatal("protection must be waived when no unprotected page exists")
	}
}

func TestRandomPolicyZeroWindow(t *testing.T) {
	r := NewRandom(rand.New(rand.NewSource(1)), 0)
	p := NewPool(2, r)
	p.Access(1) //nolint:errcheck
	p.Boost(1)  // no-op with window 0
	p.Access(2) //nolint:errcheck
	if _, err := p.Access(3); err != nil {
		t.Fatal(err)
	}
}

// Property: residency never exceeds capacity and Contains matches the set
// of admitted-minus-evicted pages under arbitrary access sequences and all
// three policy implementations.
func TestResidencyInvariant(t *testing.T) {
	policies := map[string]func() Policy{
		"lru":    func() Policy { return NewLRU() },
		"random": func() Policy { return NewRandom(rand.New(rand.NewSource(7)), 4) },
	}
	for name, mk := range policies {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				p := NewPool(6, mk())
				resident := map[storage.PageID]bool{}
				for i := 0; i < 400; i++ {
					pg := storage.PageID(1 + rng.Intn(25))
					switch rng.Intn(3) {
					case 0, 1:
						res, err := p.Access(pg)
						if err != nil {
							return false
						}
						if res.Victim != storage.NilPage {
							delete(resident, res.Victim)
						}
						resident[pg] = true
					case 2:
						p.Boost(pg)
					}
					if p.Resident() > p.Capacity() {
						return false
					}
					for q := range resident {
						if !p.Contains(q) {
							return false
						}
					}
				}
				return len(resident) == p.Resident()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Random draws through its own counted intn; it must pick exactly what
// rand.Rand.Intn picks from the same stream, or every figure run under
// Random would move.
func TestRandomIntnMatchesRand(t *testing.T) {
	want := rand.New(rand.NewSource(7))
	r := NewRandom(rand.New(rand.NewSource(7)), 0)
	for i := 1; i < 5000; i++ {
		n := 1 + i%1500
		if got, w := r.intn(n), want.Intn(n); got != w {
			t.Fatalf("draw %d of [0,%d): intn %d, rand.Intn %d", i, n, got, w)
		}
	}
}

// A cloned pool evicts exactly what the original evicts from then on,
// whatever policy it holds: residency, dirty flags, the policy's order and
// Random's stream position all carry over, and the two share no state.
func TestPoolCloneEvictsLikeOriginal(t *testing.T) {
	for name, newPolicy := range map[string]func(seed int64) Policy{
		"lru":    func(int64) Policy { return NewLRU() },
		"clock":  func(int64) Policy { return NewClock() },
		"random": func(seed int64) Policy { return NewRandom(rand.New(rand.NewSource(seed)), 2) },
	} {
		t.Run(name, func(t *testing.T) {
			orig := NewPool(8, newPolicy(3))
			drive := func(p *Pool, from, to int) []storage.PageID {
				var victims []storage.PageID
				for i := from; i < to; i++ {
					pg := storage.PageID(1 + (i*7)%23)
					res, err := p.Access(pg)
					if err != nil {
						t.Fatal(err)
					}
					if i%3 == 0 {
						if err := p.MarkDirty(pg); err != nil {
							t.Fatal(err)
						}
					}
					if i%5 == 0 {
						p.Boost(storage.PageID(1 + i%23))
					}
					victims = append(victims, res.Victim)
				}
				return victims
			}
			drive(orig, 0, 200)
			clone, ok := orig.Clone(PolicyConfig{RNG: func() *rand.Rand { return rand.New(rand.NewSource(3)) }})
			if !ok {
				t.Fatal("pool did not clone")
			}
			got, want := drive(clone, 200, 400), drive(orig, 200, 400)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d: clone evicted %d, original %d", 200+i, got[i], want[i])
				}
			}
		})
	}
}
