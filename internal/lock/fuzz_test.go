package lock

import (
	"fmt"
	"slices"
	"testing"

	"oodb/internal/model"
)

// refManager is the reference lock table FuzzLockTable checks the real one
// against: one unsharded Go map of entries with map holders, no free lists,
// and grant callbacks fired as the queue is popped — the representation the
// probed slice-and-free-list table replaced.
type refManager struct {
	table map[model.ObjectID]*refEntry
	stats Stats
}

type refEntry struct {
	holders map[int]Mode
	queue   []refWaiter
}

type refWaiter struct {
	txn   int
	mode  Mode
	grant func()
}

func newRefManager() *refManager {
	return &refManager{table: map[model.ObjectID]*refEntry{}}
}

func (r *refManager) compatible(e *refEntry, txn int, mode Mode, guard bool) bool {
	if len(e.holders) == 0 {
		return true
	}
	if held, ok := e.holders[txn]; ok {
		return mode <= held || len(e.holders) == 1
	}
	if mode == Exclusive {
		return false
	}
	for _, hm := range e.holders {
		if hm == Exclusive {
			return false
		}
	}
	if guard {
		for _, w := range e.queue {
			if w.mode == Exclusive {
				return false
			}
		}
	}
	return true
}

func (r *refManager) grantTo(e *refEntry, txn int, mode Mode) {
	if prev, ok := e.holders[txn]; !ok || mode > prev {
		e.holders[txn] = mode
	}
	r.stats.Granted++
}

func (r *refManager) acquire(txn int, obj model.ObjectID, mode Mode, grant func()) bool {
	r.stats.Requests++
	e := r.table[obj]
	if e == nil {
		e = &refEntry{holders: map[int]Mode{}}
		r.table[obj] = e
	}
	if r.compatible(e, txn, mode, true) {
		r.grantTo(e, txn, mode)
		return true
	}
	r.stats.Conflicts++
	e.queue = append(e.queue, refWaiter{txn, mode, grant})
	r.stats.MaxWaiters = max(r.stats.MaxWaiters, len(e.queue))
	return false
}

// release drops txn's hold on each object of the set the caller acquired,
// in set order.
func (r *refManager) release(txn int, set []Request) {
	for _, req := range set {
		obj := req.Obj
		e := r.table[obj]
		if e == nil {
			continue
		}
		if _, ok := e.holders[txn]; !ok {
			continue
		}
		delete(e.holders, txn)
		r.stats.Releases++
		var grants []func()
		for len(e.queue) > 0 && r.compatible(e, e.queue[0].txn, e.queue[0].mode, false) {
			w := e.queue[0]
			e.queue = e.queue[1:]
			r.grantTo(e, w.txn, w.mode)
			grants = append(grants, w.grant)
		}
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(r.table, obj)
		}
		for _, g := range grants {
			g()
		}
	}
}

func (r *refManager) holds(txn int, obj model.ObjectID) bool {
	e := r.table[obj]
	if e == nil {
		return false
	}
	_, ok := e.holders[txn]
	return ok
}

const (
	fuzzTxns    = 8
	fuzzObjects = 6
)

// FuzzLockTable decodes each byte into one call — Acquire Shared, Acquire
// Exclusive, release or Holds (top two bits) by one of 8 transactions
// (next three) on one of 6 objects (low three, mod 6) — and runs the
// sequence on a one-shard and a four-shard manager that release through
// Release, a 64-shard one that releases through ReleaseAll, and refManager.
// Calls follow the engine's protocol: a transaction waiting for a grant
// issues nothing, and each one acquires objects in ascending order (the
// same object again is a re-entrant request or an upgrade, which the
// caller's set records as one request in the stronger mode) until it
// releases its set. Grant results, callback order, Stats, Holds and Locked
// must agree after every call, and CheckInvariants must pass.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{0x40, 0x08, 0x10, 0x80, 0x88, 0x90})       // X by 1, S by 2 and 3 queue, releases
	f.Add([]byte{0x00, 0x08, 0x40, 0x88, 0xc0, 0x80})       // S by 1 and 2, 1's upgrade waits on 2
	f.Add([]byte{0x00, 0x48, 0x10, 0x80, 0x88, 0x90, 0xd0}) // writer not starved by a later reader
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		var (
			logs    [4][]string
			waiting [fuzzTxns + 1]bool
			sets    [fuzzTxns + 1][]Request // each transaction's lock set
		)
		mgrs := []*Manager{NewManager(), NewManagerSharded(4), NewManagerSharded(64)}
		const refLog = 3
		ref := newRefManager()
		for step, b := range data {
			txn := int(b>>3&7) + 1
			obj := model.ObjectID(int(b&7)%fuzzObjects + 1)
			call := fmt.Sprintf("step %d: txn %d obj %d op %d", step, txn, obj, b>>6)
			switch op := b >> 6; {
			case op <= 1:
				set := sets[txn]
				if waiting[txn] || len(set) > 0 && obj < set[len(set)-1].Obj {
					continue
				}
				mode := Mode(op)
				if n := len(set); n > 0 && set[n-1].Obj == obj {
					set[n-1].Mode = max(set[n-1].Mode, mode)
				} else {
					sets[txn] = append(set, Request{obj, mode})
				}
				grant := func(i int) func() {
					return func() { logs[i] = append(logs[i], fmt.Sprintf("%d@%d", txn, obj)) }
				}
				want := ref.acquire(txn, obj, mode, func() {
					waiting[txn] = false
					grant(refLog)()
				})
				waiting[txn] = !want
				for i, m := range mgrs {
					got, err := m.Acquire(txn, obj, mode, grant(i))
					if err != nil || got != want {
						t.Fatalf("%s: shards=%d Acquire = %v, %v; reference %v", call, m.Shards(), got, err, want)
					}
				}
			case op == 2:
				if waiting[txn] {
					continue
				}
				ref.release(txn, sets[txn])
				for i, m := range mgrs {
					if i < 2 {
						m.Release(txn, sets[txn])
					} else {
						m.ReleaseAll(txn)
					}
				}
				sets[txn] = sets[txn][:0]
			default:
				for _, m := range mgrs {
					if got, want := m.Holds(txn, obj), ref.holds(txn, obj); got != want {
						t.Fatalf("%s: shards=%d Holds = %v, reference %v", call, m.Shards(), got, want)
					}
				}
			}
			for i, m := range mgrs {
				if !slices.Equal(logs[i], logs[refLog]) {
					t.Fatalf("%s: shards=%d grants %v, reference %v", call, m.Shards(), logs[i], logs[refLog])
				}
				if got := m.Stats(); got != ref.stats {
					t.Fatalf("%s: shards=%d stats %+v, reference %+v", call, m.Shards(), got, ref.stats)
				}
				if got := m.Locked(); got != len(ref.table) {
					t.Fatalf("%s: shards=%d Locked = %d, reference %d", call, m.Shards(), got, len(ref.table))
				}
				for tx := 1; tx <= fuzzTxns; tx++ {
					for o := model.ObjectID(1); o <= fuzzObjects; o++ {
						if m.Holds(tx, o) != ref.holds(tx, o) {
							t.Fatalf("%s: shards=%d Holds(%d, %d) = %v, reference disagrees", call, m.Shards(), tx, o, m.Holds(tx, o))
						}
					}
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("%s: shards=%d: %v", call, m.Shards(), err)
				}
			}
		}
	})
}
