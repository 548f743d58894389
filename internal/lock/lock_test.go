package lock

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"oodb/internal/model"
)

// lockSet is a lock set over objs, the way a caller hands one to Release
// (Release reads only the objects).
func lockSet(objs ...model.ObjectID) []Request {
	s := make([]Request, len(objs))
	for i, obj := range objs {
		s[i] = Request{Obj: obj}
	}
	return s
}

func TestSharedCompatible(t *testing.T) {
	m := NewManager()
	g1, err := m.Acquire(1, 10, Shared, nil)
	if err != nil || !g1 {
		t.Fatalf("first shared: %v %v", g1, err)
	}
	g2, err := m.Acquire(2, 10, Shared, nil)
	if err != nil || !g2 {
		t.Fatalf("second shared: %v %v", g2, err)
	}
	if !m.Holds(1, 10) || !m.Holds(2, 10) {
		t.Fatal("holders not recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestExclusiveConflicts(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive, nil) //nolint:errcheck
	granted := false
	g, err := m.Acquire(2, 10, Exclusive, func() { granted = true })
	if err != nil || g {
		t.Fatalf("conflicting exclusive granted: %v %v", g, err)
	}
	if granted {
		t.Fatal("grant callback ran synchronously")
	}
	m.Release(1, lockSet(10))
	if !granted {
		t.Fatal("waiter not granted on release")
	}
	if !m.Holds(2, 10) || m.Holds(1, 10) {
		t.Fatal("ownership not transferred")
	}
	st := m.Stats()
	if st.Conflicts != 1 || st.Granted != 2 || st.Requests != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSharedBlockedByExclusive(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Exclusive, nil) //nolint:errcheck
	calls := 0
	m.Acquire(2, 10, Shared, func() { calls++ }) //nolint:errcheck
	m.Acquire(3, 10, Shared, func() { calls++ }) //nolint:errcheck
	if calls != 0 {
		t.Fatal("shared granted under exclusive")
	}
	m.Release(1, lockSet(10))
	// Both shared waiters batch in.
	if calls != 2 {
		t.Fatalf("granted %d of 2 shared waiters", calls)
	}
}

func TestWriterNotStarved(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared, nil) //nolint:errcheck
	xGranted := false
	m.Acquire(2, 10, Exclusive, func() { xGranted = true }) //nolint:errcheck
	// A later shared request must queue behind the exclusive waiter even
	// though it is compatible with the current holder.
	sGranted := false
	g, _ := m.Acquire(3, 10, Shared, func() { sGranted = true })
	if g {
		t.Fatal("shared jumped the exclusive waiter")
	}
	m.Release(1, lockSet(10))
	if !xGranted || sGranted {
		t.Fatalf("exclusive should be granted first: x=%v s=%v", xGranted, sGranted)
	}
	m.Release(2, lockSet(10))
	if !sGranted {
		t.Fatal("shared waiter never granted")
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	m := NewManager()
	m.Acquire(1, 10, Shared, nil) //nolint:errcheck
	// Re-entrant shared is free.
	g, err := m.Acquire(1, 10, Shared, nil)
	if err != nil || !g {
		t.Fatal("re-entrant shared refused")
	}
	// Sole holder may upgrade.
	g, err = m.Acquire(1, 10, Exclusive, nil)
	if err != nil || !g {
		t.Fatal("sole-holder upgrade refused")
	}
	// With two holders, upgrade must wait.
	m2 := NewManager()
	m2.Acquire(1, 10, Shared, nil) //nolint:errcheck
	m2.Acquire(2, 10, Shared, nil) //nolint:errcheck
	up := false
	g, _ = m2.Acquire(1, 10, Exclusive, func() { up = true })
	if g {
		t.Fatal("upgrade granted despite second holder")
	}
	m2.Release(2, lockSet(10))
	if !up {
		t.Fatal("upgrade not granted after other holder left")
	}
}

func TestAcquireErrors(t *testing.T) {
	m := NewManager()
	if _, err := m.Acquire(1, model.NilObject, Shared, nil); err == nil {
		t.Fatal("nil object accepted")
	}
	m.Acquire(1, 10, Exclusive, nil) //nolint:errcheck
	if _, err := m.Acquire(2, 10, Exclusive, nil); err == nil {
		t.Fatal("conflicting request without callback accepted")
	}
}

// TestReleaseAllCleansTable: the table-scanning wrapper releases every lock the
// transaction holds, in ascending object order whatever the shards, and
// leaves the table clean.
func TestReleaseAllCleansTable(t *testing.T) {
	m := NewManagerSharded(4)
	var grants []model.ObjectID
	for obj := model.ObjectID(1); obj <= 5; obj++ {
		m.Acquire(7, obj, Exclusive, nil)                                  //nolint:errcheck
		m.Acquire(8, obj, Shared, func() { grants = append(grants, obj) }) //nolint:errcheck
	}
	if m.Locked() != 5 {
		t.Fatalf("locked=%d", m.Locked())
	}
	m.ReleaseAll(7)
	if !slices.Equal(grants, []model.ObjectID{1, 2, 3, 4, 5}) {
		t.Fatalf("waiters granted in order %v, want ascending", grants)
	}
	m.ReleaseAll(8)
	if m.Locked() != 0 {
		t.Fatalf("table not cleaned: %d", m.Locked())
	}
	// Releasing a transaction with no locks is a no-op.
	m.ReleaseAll(99)
	if st := m.Stats(); st.Releases != 10 {
		t.Fatalf("releases = %d, want 10", st.Releases)
	}
}

// TestReleasePartlyHeldSet: a caller whose acquisition stopped part-way
// releases its whole set. Exactly the prefix it holds is freed (a waiter
// queued behind it is granted); objects further on, held or awaited by
// other transactions, are left as they were.
func TestReleasePartlyHeldSet(t *testing.T) {
	m := NewManagerSharded(4)
	acquire := func(txn int, obj model.ObjectID, mode Mode, grant func()) bool {
		t.Helper()
		ok, err := m.Acquire(txn, obj, mode, grant)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	var granted []int
	acquire(1, 1, Exclusive, nil)
	acquire(1, 2, Exclusive, nil) // txn 1's set is {1,2,3,5}; it stopped before 3
	acquire(2, 3, Shared, nil)
	acquire(2, 5, Shared, nil)
	if acquire(3, 3, Exclusive, func() { granted = append(granted, 3) }) ||
		acquire(4, 2, Shared, func() { granted = append(granted, 4) }) {
		t.Fatal("conflicting request granted")
	}

	m.Release(1, lockSet(1, 2, 3, 5))
	if m.Holds(1, 1) || m.Holds(1, 2) {
		t.Fatal("txn 1 still holds its acquired prefix")
	}
	if !slices.Equal(granted, []int{4}) || !m.Holds(4, 2) {
		t.Fatalf("grants %v: want only txn 4's, on object 2", granted)
	}
	if !m.Holds(2, 3) || !m.Holds(2, 5) || m.Holds(3, 3) {
		t.Fatal("another transaction's holds or queue changed")
	}
	if st := m.Stats(); st.Releases != 2 || m.Locked() != 3 {
		t.Fatalf("releases=%d locked=%d, want 2 and 3", st.Releases, m.Locked())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Release(2, lockSet(3, 5)) // the queue on 3 is intact: txn 3 is next
	if !slices.Equal(granted, []int{4, 3}) || !m.Holds(3, 3) {
		t.Fatalf("grants %v: txn 3's queued request was lost", granted)
	}
}

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatal("mode names")
	}
}

// Property: under random acquire/release traffic with the sorted-order
// protocol, (a) invariants always hold, (b) every queued request is
// eventually granted once all holders release, (c) no exclusive lock ever
// coexists with another holder.
func TestRandomTrafficInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		type txnState struct {
			id      int
			pending int // locks not yet granted
			active  bool
			set     []Request // requested so far, in order
		}
		txns := map[int]*txnState{}
		next := 1
		grantedTotal := 0
		for step := 0; step < 400; step++ {
			if rng.Intn(2) == 0 || len(txns) == 0 {
				// Start a transaction: request 1-3 locks in sorted order.
				ts := &txnState{id: next, active: true}
				next++
				txns[ts.id] = ts
				n := 1 + rng.Intn(3)
				objs := map[model.ObjectID]Mode{}
				for i := 0; i < n; i++ {
					objs[model.ObjectID(1+rng.Intn(6))] = Mode(rng.Intn(2))
				}
				var order []model.ObjectID // the transaction's lock set
				for o := range objs {
					order = append(order, o)
				}
				for i := 0; i < len(order); i++ {
					for j := i + 1; j < len(order); j++ {
						if order[j] < order[i] {
							order[i], order[j] = order[j], order[i]
						}
					}
				}
				for _, o := range order {
					ts.set = append(ts.set, Request{o, objs[o]})
					ts.pending++
					g, err := m.Acquire(ts.id, o, objs[o], func() {
						ts.pending--
						grantedTotal++
					})
					if err != nil {
						return false
					}
					if g {
						ts.pending--
						grantedTotal++
					} else {
						break // must wait before requesting the next lock
					}
				}
			} else {
				// Finish a random fully-granted transaction.
				for id, ts := range txns {
					if ts.pending == 0 {
						m.Release(id, ts.set)
						delete(txns, id)
						break
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				return false
			}
		}
		// Drain: releasing every granted transaction must eventually grant
		// and release everything (no deadlock under the sorted protocol).
		for guard := 0; guard < 10000 && len(txns) > 0; guard++ {
			progressed := false
			for id, ts := range txns {
				if ts.pending == 0 {
					m.Release(id, ts.set)
					delete(txns, id)
					progressed = true
					break
				}
			}
			if !progressed {
				return false // stuck: would be a deadlock
			}
		}
		return len(txns) == 0 && m.Locked() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireReleaseAllocs: on a warmed manager the uncontended acquire →
// Release cycle allocates nothing, at one shard and at eight. Entries and
// holder slots come back from the per-shard free lists, the entry table has
// grown to its peak, and AcquireWait makes its channel only when it queues.
func TestAcquireReleaseAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		m := NewManagerSharded(shards)
		acquire := func(txn int, obj model.ObjectID, mode Mode) {
			if ok, err := m.Acquire(txn, obj, mode, nil); err != nil || !ok {
				t.Fatalf("Acquire(%d, %d, %v): ok=%v err=%v", txn, obj, mode, ok, err)
			}
		}
		cases := []struct {
			name string
			op   func(txn int, obj model.ObjectID)
		}{
			{"shared", func(txn int, obj model.ObjectID) { acquire(txn, obj, Shared) }},
			{"exclusive", func(txn int, obj model.ObjectID) { acquire(txn, obj, Exclusive) }},
			{"upgrade", func(txn int, obj model.ObjectID) {
				acquire(txn, obj, Shared)
				acquire(txn, obj, Exclusive)
			}},
			{"wait", func(txn int, obj model.ObjectID) {
				if err := m.AcquireWait(txn, obj, Exclusive); err != nil {
					t.Fatal(err)
				}
			}},
		}
		txn := 0
		held := make([]Request, 1)
		for _, c := range cases {
			cycle := func() {
				txn++
				held[0].Obj = model.ObjectID(1 + txn%64)
				c.op(txn, held[0].Obj)
				m.Release(txn, held)
			}
			for i := 0; i < 256; i++ { // warm every shard's table and free list
				cycle()
			}
			if a := testing.AllocsPerRun(200, cycle); a != 0 {
				t.Errorf("shards=%d %s: %.1f allocs per acquire/release cycle, want 0", shards, c.name, a)
			}
		}
		if m.Locked() != 0 {
			t.Fatalf("shards=%d: %d objects still locked", shards, m.Locked())
		}
	}
}

// TestCheckInvariantsCatchesCorruption: a holder slice, a probed table and
// a free list allow states a holder map did not, and the check must flag
// each one.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	setup := func() *Manager {
		m := NewManagerSharded(4)
		m.Acquire(1, 10, Shared, nil)    //nolint:errcheck
		m.Acquire(2, 20, Exclusive, nil) //nolint:errcheck
		m.Release(2, lockSet(20))        // 20's entry goes to its shard's free list
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("before corruption: %v", err)
		}
		return m
	}
	recycled := func(m *Manager) *entry { return m.shardFor(20).free[0] }
	live := func(m *Manager) (*shardState, int) {
		sh := m.shardFor(10)
		return sh, sh.index(10)
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(m *Manager)
	}{
		{"txn listed twice", "twice", func(m *Manager) {
			sh, i := live(m)
			e := sh.slots[i].e
			e.holders = append(e.holders, holder{txn: 1, mode: Shared})
		}},
		{"recycled entry keeps a holder", "recycled", func(m *Manager) {
			e := recycled(m)
			e.holders = append(e.holders, holder{txn: 3, mode: Shared})
		}},
		{"recycled entry keeps a waiter", "recycled", func(m *Manager) {
			e := recycled(m)
			e.queue = append(e.queue, waiter{txn: 3, mode: Exclusive})
		}},
		{"entry off its probe path", "probe path", func(m *Manager) {
			sh, i := live(m)
			j := (i + len(sh.slots)/2) % len(sh.slots) // the table is at most half full
			sh.slots[i], sh.slots[j] = sh.slots[j], sh.slots[i]
		}},
		{"occupancy miscounted", "occupied", func(m *Manager) {
			sh, _ := live(m)
			sh.n++
		}},
	} {
		m := setup()
		c.corrupt(m)
		err := m.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckInvariants() = %v, want an error naming %q", c.name, err, c.want)
		}
	}
}
