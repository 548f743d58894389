// Package lock implements the object-granularity concurrency control the
// paper's simulation model assumes: "The fundamental unit of recovery and
// concurrency control is the object and composite object", and each OCT
// procedure call carries "lock request behavior" (Section 4.1).
//
// The manager grants shared and exclusive locks per object with
// first-come-first-served queueing (shared requests batch). Callers avoid
// deadlock by requesting each transaction's whole lock set in a global
// order (the engine sorts by object ID); the manager itself only promises
// FIFO fairness, not deadlock detection.
//
// The lock table is sharded by object-ID hash: each shard owns its own
// mutex, entry map, and statistics, so per-operation cost stays flat as the
// table grows and independent transactions on different shards can proceed
// concurrently (the server roadmap item). Per-transaction held-lock lists
// shard separately by transaction ID. No operation ever holds two shard
// mutexes at once, and grant callbacks always fire with no mutex held —
// a callback is free to re-enter the manager. Sharding never changes
// observable behavior: single-threaded runs are byte-identical at any
// shard count.
//
// Entries and held lists are recycled through per-shard free lists, so an
// uncontended acquire → release cycle allocates nothing; only a request
// that queues does (AcquireWait's wake channel, a growing queue).
package lock

import (
	"fmt"
	"sync"

	"oodb/internal/model"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared is a read lock; compatible with other shared locks.
	Shared Mode = iota
	// Exclusive is a write lock; compatible with nothing.
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Stats aggregates lock activity.
type Stats struct {
	Requests   int
	Granted    int // immediately granted
	Conflicts  int // requests that had to wait
	Releases   int
	MaxWaiters int // longest queue observed on one object
}

// merge folds o into s: counters add, high-water marks take the max.
func (s *Stats) merge(o Stats) {
	s.Requests += o.Requests
	s.Granted += o.Granted
	s.Conflicts += o.Conflicts
	s.Releases += o.Releases
	if o.MaxWaiters > s.MaxWaiters {
		s.MaxWaiters = o.MaxWaiters
	}
}

// waiter is one queued request. A callback request (Acquire) carries grant;
// a parked one (AcquireWait) carries wake, which is closed on grant.
type waiter struct {
	txn     int
	mode    Mode
	newHold bool // set by admit: txn was not already a holder
	grant   func()
	wake    chan struct{}
}

// holder is one transaction's hold on an object.
type holder struct {
	txn  int
	mode Mode
}

type entry struct {
	// holders lists each holding transaction once. Multiple holders only
	// with Shared; a single holder may hold Exclusive. A new entry gets two
	// slots, which covers the common case; look-ups are a linear scan.
	holders []holder
	queue   []waiter
}

// find returns txn's index in e.holders, or -1.
func (e *entry) find(txn int) int {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// tableShard is one slice of the lock table, self-contained under its own
// mutex: entries, recycled entries, and the statistics for operations that
// landed here.
type tableShard struct {
	mu    sync.Mutex
	table map[model.ObjectID]*entry
	// free holds entries deleted from table, with no holders or waiters
	// but their holder and queue backing arrays kept for reuse.
	free  []*entry
	stats Stats
}

// entry returns obj's entry, taking a recycled one (or, with none left, a
// new one) if obj has none. Caller holds the shard mutex.
func (sh *tableShard) entry(obj model.ObjectID) *entry {
	e := sh.table[obj]
	if e != nil {
		return e
	}
	if n := len(sh.free); n > 0 {
		e = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		e = &entry{holders: make([]holder, 0, 2)}
	}
	sh.table[obj] = e
	return e
}

// heldShard is one slice of the per-transaction held-lock index.
type heldShard struct {
	mu   sync.Mutex
	held map[int][]model.ObjectID
	// free holds lists ReleaseAll detached, emptied, for transactions not
	// yet seen.
	free [][]model.ObjectID
}

// Manager is the lock manager.
type Manager struct {
	shards []tableShard
	heldSh []heldShard
	mask   uint64
}

// NewManager returns an empty single-shard lock manager (the default for
// the paper-scale tier, where the table holds tens of entries).
func NewManager() *Manager { return NewManagerSharded(1) }

// NewManagerSharded returns an empty lock manager with the given shard
// count, rounded up to a power of two; n < 1 selects one shard.
func NewManagerSharded(n int) *Manager {
	n = ceilPow2(n)
	m := &Manager{
		shards: make([]tableShard, n),
		heldSh: make([]heldShard, n),
		mask:   uint64(n - 1),
	}
	for i := range m.shards {
		m.shards[i].table = make(map[model.ObjectID]*entry)
		m.heldSh[i].held = make(map[int][]model.ObjectID)
	}
	return m
}

// Shards returns the shard count.
func (m *Manager) Shards() int { return len(m.shards) }

func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fibMix spreads sequential IDs across shards (Fibonacci hashing).
const fibMix = 0x9E3779B97F4A7C15

func (m *Manager) shardFor(obj model.ObjectID) *tableShard {
	return &m.shards[(uint64(obj)*fibMix>>32)&m.mask]
}

func (m *Manager) heldFor(txn int) *heldShard {
	return &m.heldSh[(uint64(txn)*fibMix>>32)&m.mask]
}

// Stats returns the statistics merged across shards.
func (m *Manager) Stats() Stats {
	var s Stats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.merge(sh.stats)
		sh.mu.Unlock()
	}
	return s
}

// ResetStats zeroes the statistics on every shard.
func (m *Manager) ResetStats() {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// compatible reports whether txn may take mode on e right now. A new
// shared holder must also not overtake a queued exclusive waiter (prevents
// writer starvation) unless it is the head of the queue itself (queued),
// which is next by definition.
func compatible(e *entry, txn int, mode Mode, queued bool) bool {
	if len(e.holders) == 0 {
		return true
	}
	if i := e.find(txn); i >= 0 {
		// Re-entrant: same or weaker mode is free; upgrades allowed only
		// when the transaction is the sole holder.
		return mode <= e.holders[i].mode || len(e.holders) == 1
	}
	if mode == Exclusive {
		return false
	}
	for _, h := range e.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	if !queued {
		for _, w := range e.queue {
			if w.mode == Exclusive {
				return false
			}
		}
	}
	return true
}

// Acquire requests mode on obj for txn. If the lock is free the request is
// granted synchronously and Acquire returns true; otherwise the request is
// queued and grant runs when the lock is eventually granted (grant must not
// be nil in that case). Acquire never calls grant synchronously.
func (m *Manager) Acquire(txn int, obj model.ObjectID, mode Mode, grant func()) (granted bool, err error) {
	granted, _, err = m.acquire(txn, obj, mode, grant, false)
	return granted, err
}

// acquire is the one grant path under Acquire and AcquireWait. A compatible
// request is granted now. A conflicting one queues with grant as its
// callback or, when park is set, with a channel made here, closed on grant
// and returned as wake: a parked request allocates only when it queues.
func (m *Manager) acquire(txn int, obj model.ObjectID, mode Mode, grant func(), park bool) (granted bool, wake chan struct{}, err error) {
	if obj == model.NilObject {
		return false, nil, fmt.Errorf("lock: acquire on nil object")
	}
	sh := m.shardFor(obj)
	sh.mu.Lock()
	sh.stats.Requests++
	e := sh.entry(obj)
	if compatible(e, txn, mode, false) {
		newHold := grantTo(e, txn, mode)
		sh.stats.Granted++
		sh.mu.Unlock()
		if newHold {
			m.recordHeld(txn, obj)
		}
		return true, nil, nil
	}
	if park {
		wake = make(chan struct{})
	} else if grant == nil {
		sh.mu.Unlock()
		return false, nil, fmt.Errorf("lock: conflicting request without grant callback")
	}
	sh.stats.Conflicts++
	e.queue = append(e.queue, waiter{txn: txn, mode: mode, grant: grant, wake: wake})
	if len(e.queue) > sh.stats.MaxWaiters {
		sh.stats.MaxWaiters = len(e.queue)
	}
	sh.mu.Unlock()
	return false, wake, nil
}

// grantTo records the grant on the entry and reports whether txn is a new
// holder (and so must be added to its held list). Caller holds the shard
// mutex.
func grantTo(e *entry, txn int, mode Mode) (newHold bool) {
	if i := e.find(txn); i >= 0 {
		if mode > e.holders[i].mode {
			e.holders[i].mode = mode
		}
		return false
	}
	e.holders = append(e.holders, holder{txn: txn, mode: mode})
	return true
}

// recordHeld appends obj to txn's held list; a transaction with no list yet
// takes a recycled one.
func (m *Manager) recordHeld(txn int, obj model.ObjectID) {
	hs := m.heldFor(txn)
	hs.mu.Lock()
	objs, ok := hs.held[txn]
	if n := len(hs.free); !ok && n > 0 {
		objs = hs.free[n-1]
		hs.free[n-1] = nil
		hs.free = hs.free[:n-1]
	}
	hs.held[txn] = append(objs, obj)
	hs.mu.Unlock()
}

// ReleaseAll drops every lock txn holds and grants eligible waiters in FIFO
// order (a released exclusive lock may admit a batch of shared waiters).
// Grant callbacks run synchronously, after all bookkeeping for that object
// is updated and with no shard mutex held.
func (m *Manager) ReleaseAll(txn int) {
	hs := m.heldFor(txn)
	hs.mu.Lock()
	objs, ok := hs.held[txn]
	delete(hs.held, txn)
	hs.mu.Unlock()
	if !ok {
		return
	}
	var buf [4]waiter // admitted waiters; a longer batch spills to the heap
	for _, obj := range objs {
		sh := m.shardFor(obj)
		sh.mu.Lock()
		e := sh.table[obj]
		if e == nil {
			sh.mu.Unlock()
			continue
		}
		i := e.find(txn)
		if i < 0 {
			sh.mu.Unlock()
			continue
		}
		last := len(e.holders) - 1
		e.holders[i] = e.holders[last]
		e.holders = e.holders[:last]
		sh.stats.Releases++
		admitted := sh.admit(e, buf[:0])
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(sh.table, obj)
			sh.free = append(sh.free, e)
		}
		sh.mu.Unlock()
		for _, w := range admitted {
			if w.newHold {
				m.recordHeld(w.txn, obj)
			}
		}
		for _, w := range admitted {
			if w.grant != nil {
				w.grant()
			} else {
				close(w.wake)
			}
		}
	}
	// objs was detached above, so no one else can reach it now.
	hs.mu.Lock()
	hs.free = append(hs.free, objs[:0])
	hs.mu.Unlock()
}

// admit grants queued waiters that have become compatible, in FIFO order,
// and appends them to out for the caller to record and fire after
// unlocking. The queue keeps its backing array. Caller holds the shard
// mutex.
func (sh *tableShard) admit(e *entry, out []waiter) []waiter {
	k := 0
	for ; k < len(e.queue); k++ {
		w := e.queue[k]
		if !compatible(e, w.txn, w.mode, true) {
			break
		}
		w.newHold = grantTo(e, w.txn, w.mode)
		sh.stats.Granted++
		out = append(out, w)
	}
	if k > 0 {
		n := copy(e.queue, e.queue[k:])
		clear(e.queue[n:]) // a recycled entry must not pin old callbacks
		e.queue = e.queue[:n]
	}
	return out
}

// Holds reports whether txn currently holds a lock on obj (any mode).
func (m *Manager) Holds(txn int, obj model.ObjectID) bool {
	sh := m.shardFor(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.table[obj]
	return e != nil && e.find(txn) >= 0
}

// Locked returns the number of objects with at least one holder or waiter.
func (m *Manager) Locked() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}

// hold is one (transaction, object) pair CheckInvariants cross-checks.
type hold struct {
	txn int
	obj model.ObjectID
}

// CheckInvariants validates internal consistency: no object has both an
// exclusive holder and another holder, lists a transaction twice, or has
// waiters but no holders; no recycled entry carries holders or waiters; and
// the held lists and the table agree in both directions. Between the table
// update and the held-list update of an operation in flight the two briefly
// disagree, so call it on a quiescent manager.
func (m *Manager) CheckInvariants() error {
	var holds []hold
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		var err error
		holds, err = sh.check(holds)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	for _, h := range holds {
		if !m.listed(h.txn, h.obj) {
			return fmt.Errorf("lock: txn %d holds object %d missing from its held list", h.txn, h.obj)
		}
	}
	for i := range m.heldSh {
		hs := &m.heldSh[i]
		hs.mu.Lock()
		claims := make(map[int][]model.ObjectID, len(hs.held))
		for txn, objs := range hs.held {
			claims[txn] = append([]model.ObjectID(nil), objs...)
		}
		hs.mu.Unlock()
		for txn, objs := range claims {
			for _, obj := range objs {
				if !m.Holds(txn, obj) {
					return fmt.Errorf("lock: txn %d claims object %d it does not hold", txn, obj)
				}
			}
		}
	}
	return nil
}

// check validates the shard's entries and free list and appends every hold
// it finds to holds. Caller holds the shard mutex.
func (sh *tableShard) check(holds []hold) ([]hold, error) {
	for obj, e := range sh.table {
		exclusives := 0
		for i, h := range e.holders {
			if h.mode == Exclusive {
				exclusives++
			}
			if e.find(h.txn) != i {
				return holds, fmt.Errorf("lock: object %d lists txn %d twice among its holders", obj, h.txn)
			}
			holds = append(holds, hold{h.txn, obj})
		}
		if exclusives > 0 && len(e.holders) > 1 {
			return holds, fmt.Errorf("lock: object %d has an exclusive holder plus others", obj)
		}
		if len(e.holders) == 0 && len(e.queue) > 0 {
			return holds, fmt.Errorf("lock: object %d has waiters but no holders", obj)
		}
	}
	for _, e := range sh.free {
		if len(e.holders) > 0 || len(e.queue) > 0 {
			return holds, fmt.Errorf("lock: recycled entry still carries %d holders and %d waiters", len(e.holders), len(e.queue))
		}
	}
	return holds, nil
}

// listed reports whether obj is on txn's held list.
func (m *Manager) listed(txn int, obj model.ObjectID) bool {
	hs := m.heldFor(txn)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	for _, o := range hs.held[txn] {
		if o == obj {
			return true
		}
	}
	return false
}
