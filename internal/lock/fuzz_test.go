package lock

import (
	"fmt"
	"slices"
	"testing"

	"oodb/internal/model"
)

// refManager is the reference lock table FuzzLockTable checks the real one
// against: one unsharded table with map holders, no free lists, and grant
// callbacks fired as the queue is popped — the representation the
// slice-and-free-list table replaced.
type refManager struct {
	table map[model.ObjectID]*refEntry
	held  map[int][]model.ObjectID
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
	return &refManager{table: map[model.ObjectID]*refEntry{}, held: map[int][]model.ObjectID{}}
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

func (r *refManager) grantTo(e *refEntry, txn int, obj model.ObjectID, mode Mode) {
	prev, ok := e.holders[txn]
	if !ok {
		r.held[txn] = append(r.held[txn], obj)
	}
	if !ok || mode > prev {
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
		r.grantTo(e, txn, obj, mode)
		return true
	}
	r.stats.Conflicts++
	e.queue = append(e.queue, refWaiter{txn, mode, grant})
	r.stats.MaxWaiters = max(r.stats.MaxWaiters, len(e.queue))
	return false
}

func (r *refManager) releaseAll(txn int) {
	objs := r.held[txn]
	delete(r.held, txn)
	for _, obj := range objs {
		e := r.table[obj]
		if _, ok := e.holders[txn]; !ok {
			continue
		}
		delete(e.holders, txn)
		r.stats.Releases++
		var grants []func()
		for len(e.queue) > 0 && r.compatible(e, e.queue[0].txn, e.queue[0].mode, false) {
			w := e.queue[0]
			e.queue = e.queue[1:]
			r.grantTo(e, w.txn, obj, w.mode)
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
// Exclusive, ReleaseAll or Holds (top two bits) by one of 8 transactions
// (next three) on one of 6 objects (low three, mod 6) — and runs the
// sequence on a one-shard manager, a four-shard manager and refManager.
// Calls follow the engine's protocol: a transaction waiting for a grant
// issues nothing, and each one acquires objects in ascending order (the
// same object again is a re-entrant request or an upgrade) until it
// releases everything. Grant results, callback order, Stats, Holds and
// Locked must agree after every call, and CheckInvariants must pass.
func FuzzLockTable(f *testing.F) {
	f.Add([]byte{0x40, 0x08, 0x10, 0x80, 0x88, 0x90})       // X by 1, S by 2 and 3 queue, releases
	f.Add([]byte{0x00, 0x08, 0x40, 0x88, 0xc0, 0x80})       // S by 1 and 2, 1's upgrade waits on 2
	f.Add([]byte{0x00, 0x48, 0x10, 0x80, 0x88, 0x90, 0xd0}) // writer not starved by a later reader
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		var (
			logs    [3][]string
			waiting [fuzzTxns + 1]bool
			last    [fuzzTxns + 1]model.ObjectID
		)
		mgrs := []*Manager{NewManager(), NewManagerSharded(4)}
		ref := newRefManager()
		for step, b := range data {
			txn := int(b>>3&7) + 1
			obj := model.ObjectID(int(b&7)%fuzzObjects + 1)
			call := fmt.Sprintf("step %d: txn %d obj %d op %d", step, txn, obj, b>>6)
			switch op := b >> 6; {
			case op <= 1:
				if waiting[txn] || obj < last[txn] {
					continue
				}
				last[txn] = obj
				mode := Mode(op)
				grant := func(i int) func() {
					return func() { logs[i] = append(logs[i], fmt.Sprintf("%d@%d", txn, obj)) }
				}
				want := ref.acquire(txn, obj, mode, func() {
					waiting[txn] = false
					grant(2)()
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
				last[txn] = 0
				ref.releaseAll(txn)
				for _, m := range mgrs {
					m.ReleaseAll(txn)
				}
			default:
				for _, m := range mgrs {
					if got, want := m.Holds(txn, obj), ref.holds(txn, obj); got != want {
						t.Fatalf("%s: shards=%d Holds = %v, reference %v", call, m.Shards(), got, want)
					}
				}
			}
			for i, m := range mgrs {
				if !slices.Equal(logs[i], logs[2]) {
					t.Fatalf("%s: shards=%d grants %v, reference %v", call, m.Shards(), logs[i], logs[2])
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
