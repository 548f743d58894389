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
// mutex, entry table, and statistics, padded to its own cache lines, so
// per-operation cost stays flat as the table grows and transactions on
// different shards proceed without sharing a line. The manager keeps no
// per-transaction index: a caller keeps the set it acquired and hands it
// back to Release. No operation ever holds two shard mutexes at once, and
// grant callbacks always fire with no mutex held — a callback is free to
// re-enter the manager. Sharding never changes observable behavior:
// single-threaded runs are byte-identical at any shard count.
//
// A shard's entries live in an open-addressed table and are recycled
// through a per-shard free list, so an uncontended acquire → release cycle
// allocates nothing; only a request that queues does (AcquireWait's wake
// channel, a growing queue).
package lock

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

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

// Request is one object and the mode a transaction needs on it. A lock set
// is a slice of them, sorted by object and without duplicates: the order a
// transaction acquires in and the order Release releases in.
type Request struct {
	Obj  model.ObjectID
	Mode Mode
}

// Stats aggregates lock activity.
type Stats struct {
	Requests   int
	Granted    int // immediately granted
	Conflicts  int // requests that had to wait
	Releases   int
	MaxWaiters int // longest queue observed on one object
}

// waiter is one queued request. A callback request (Acquire) carries grant;
// a parked one (AcquireWait) carries wake, which is closed on grant.
type waiter struct {
	txn   int
	mode  Mode
	grant func()
	wake  chan struct{}
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

// find returns txn's index in e.holders, or -1 (always, on a nil entry).
func (e *entry) find(txn int) int {
	if e != nil {
		for i := range e.holders {
			if e.holders[i].txn == txn {
				return i
			}
		}
	}
	return -1
}

// slot is one cell of a shard's entry table; obj is NilObject when empty.
type slot struct {
	obj model.ObjectID
	e   *entry
}

// shardState is one slice of the lock table, self-contained under its own
// mutex: an open-addressed entry table (Fibonacci hashing, linear probing,
// at most half full, backward-shift deletion so there are no tombstones),
// recycled entries, and the statistics for operations that landed here.
type shardState struct {
	mu    sync.Mutex
	slots []slot // power-of-two length
	shift uint8  // 64 - log2(len(slots))
	n     int    // occupied slots
	// free holds entries removed from the table, with no holders or
	// waiters but their holder and queue backing arrays kept for reuse.
	free  []*entry
	stats Stats
}

// tableShard pads a shard to whole 128-byte blocks: neighbouring shards'
// mutexes and counters share no cache line nor adjacent-line pair.
type tableShard struct {
	shardState
	_ [(128 - unsafe.Sizeof(shardState{})%128) % 128]byte
}

// fibMix spreads sequential IDs (Fibonacci hashing). Bits 32 and up of the
// product pick the shard, the top bits the slot within it.
const fibMix = 0x9E3779B97F4A7C15

func hash(obj model.ObjectID) uint64 { return uint64(obj) * fibMix }

// index returns the slot holding obj, or the empty slot where it belongs.
// The table is never full, so the probe ends. Caller holds the mutex.
func (sh *shardState) index(obj model.ObjectID) int {
	mask := len(sh.slots) - 1
	i := int(hash(obj) >> sh.shift)
	for sh.slots[i].obj != obj && sh.slots[i].obj != model.NilObject {
		i = (i + 1) & mask
	}
	return i
}

// reset gives the shard a table of n empty slots, n a power of two; the
// caller accounts for sh.n.
func (sh *shardState) reset(n int) {
	sh.slots = make([]slot, n)
	sh.shift = uint8(65 - bits.Len(uint(n)))
}

// entry returns obj's entry, taking a recycled one (or, with none left, a
// new one) if obj has none. Caller holds the mutex.
func (sh *shardState) entry(obj model.ObjectID) *entry {
	i := sh.index(obj)
	if e := sh.slots[i].e; e != nil {
		return e
	}
	if 2*(sh.n+1) > len(sh.slots) {
		old := sh.slots
		sh.reset(2 * len(old))
		for _, s := range old {
			if s.e != nil {
				sh.slots[sh.index(s.obj)] = s
			}
		}
		i = sh.index(obj)
	}
	var e *entry
	if n := len(sh.free); n > 0 {
		e = sh.free[n-1]
		sh.free[n-1] = nil
		sh.free = sh.free[:n-1]
	} else {
		e = &entry{holders: make([]holder, 0, 2)}
	}
	sh.slots[i] = slot{obj, e}
	sh.n++
	return e
}

// remove empties slot i and moves its entry to the free list. Each later
// slot of the probe run shifts back into the hole unless that would move
// it before its home slot. Caller holds the mutex.
func (sh *shardState) remove(i int) {
	sh.free = append(sh.free, sh.slots[i].e)
	mask := len(sh.slots) - 1
	for j := (i + 1) & mask; sh.slots[j].obj != model.NilObject; j = (j + 1) & mask {
		if home := int(hash(sh.slots[j].obj) >> sh.shift); (j-home)&mask >= (j-i)&mask {
			sh.slots[i] = sh.slots[j]
			i = j
		}
	}
	sh.slots[i] = slot{}
	sh.n--
}

// Manager is the lock manager.
type Manager struct {
	shards []tableShard
	mask   uint64
}

// NewManager returns an empty single-shard lock manager (the default for
// the paper-scale tier, where the table holds tens of entries).
func NewManager() *Manager { return NewManagerSharded(1) }

// NewManagerSharded returns an empty lock manager with the given shard
// count, rounded up to a power of two; n < 1 selects one shard.
func NewManagerSharded(n int) *Manager {
	n = ceilPow2(n)
	m := &Manager{shards: make([]tableShard, n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i].reset(8)
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

func (m *Manager) shardFor(obj model.ObjectID) *shardState {
	return &m.shards[(hash(obj)>>32)&m.mask].shardState
}

// Stats returns the statistics merged across shards: counters add,
// high-water marks take the max.
func (m *Manager) Stats() Stats {
	var s Stats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		o := sh.stats
		sh.mu.Unlock()
		s.Requests += o.Requests
		s.Granted += o.Granted
		s.Conflicts += o.Conflicts
		s.Releases += o.Releases
		s.MaxWaiters = max(s.MaxWaiters, o.MaxWaiters)
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
	defer sh.mu.Unlock()
	sh.stats.Requests++
	e := sh.entry(obj)
	if compatible(e, txn, mode, false) {
		grantTo(e, txn, mode)
		sh.stats.Granted++
		return true, nil, nil
	}
	if park {
		wake = make(chan struct{})
	} else if grant == nil {
		return false, nil, fmt.Errorf("lock: conflicting request without grant callback")
	}
	sh.stats.Conflicts++
	e.queue = append(e.queue, waiter{txn: txn, mode: mode, grant: grant, wake: wake})
	if len(e.queue) > sh.stats.MaxWaiters {
		sh.stats.MaxWaiters = len(e.queue)
	}
	return false, wake, nil
}

// grantTo records the grant on the entry. Caller holds the shard mutex.
func grantTo(e *entry, txn int, mode Mode) {
	if i := e.find(txn); i >= 0 {
		if mode > e.holders[i].mode {
			e.holders[i].mode = mode
		}
		return
	}
	e.holders = append(e.holders, holder{txn: txn, mode: mode})
}

// Release drops txn's lock on each object of set, in set order, and grants
// eligible waiters in FIFO order (a released exclusive lock may admit a
// batch of shared waiters). An object txn does not hold is skipped, so a
// caller whose acquisition stopped part-way may pass the whole set or the
// prefix it acquired. Grant callbacks run synchronously, after all
// bookkeeping for that object is updated and with no shard mutex held.
func (m *Manager) Release(txn int, set []Request) {
	var buf [4]waiter // admitted waiters; a longer batch spills to the heap
	for _, r := range set {
		sh := m.shardFor(r.Obj)
		sh.mu.Lock()
		i := sh.index(r.Obj)
		e := sh.slots[i].e
		h := e.find(txn)
		if h < 0 {
			sh.mu.Unlock()
			continue
		}
		last := len(e.holders) - 1
		e.holders[h] = e.holders[last]
		e.holders = e.holders[:last]
		sh.stats.Releases++
		admitted := sh.admit(e, buf[:0])
		if len(e.holders) == 0 && len(e.queue) == 0 {
			sh.remove(i)
		}
		sh.mu.Unlock()
		for _, w := range admitted {
			if w.grant != nil {
				w.grant()
			} else {
				close(w.wake)
			}
		}
	}
}

// ReleaseAll releases every lock txn holds in ascending object order, the
// protocol's acquisition order, found by scanning the whole table. The
// drivers keep their sets and call Release instead.
func (m *Manager) ReleaseAll(txn int) {
	var set []Request
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for _, s := range sh.slots {
			if s.e.find(txn) >= 0 {
				set = append(set, Request{Obj: s.obj})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(set, func(a, b Request) int { return cmp.Compare(a.Obj, b.Obj) })
	m.Release(txn, set)
}

// admit grants queued waiters that have become compatible, in FIFO order,
// and appends them to out for the caller to fire after unlocking. The
// queue keeps its backing array. Caller holds the shard mutex.
func (sh *shardState) admit(e *entry, out []waiter) []waiter {
	k := 0
	for ; k < len(e.queue); k++ {
		w := e.queue[k]
		if !compatible(e, w.txn, w.mode, true) {
			break
		}
		grantTo(e, w.txn, w.mode)
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
	return sh.slots[sh.index(obj)].e.find(txn) >= 0
}

// Locked returns the number of objects with at least one holder or waiter.
func (m *Manager) Locked() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// CheckInvariants validates internal consistency: every occupied slot is
// where a probe for its object finds it and the occupancy count is right;
// no object has both an exclusive holder and another holder, lists a
// transaction twice, or has waiters but no holders; and no recycled entry
// carries holders or waiters. Call it on a quiescent manager.
func (m *Manager) CheckInvariants() error {
	for i := range m.shards {
		if err := m.shards[i].check(); err != nil {
			return err
		}
	}
	return nil
}

// check validates the shard's table, entries and free list under its mutex.
func (sh *shardState) check() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for i, s := range sh.slots {
		if s.e == nil {
			continue
		}
		n++
		if sh.index(s.obj) != i {
			return fmt.Errorf("lock: object %d sits in slot %d, off its probe path", s.obj, i)
		}
		exclusives := 0
		for j, h := range s.e.holders {
			if h.mode == Exclusive {
				exclusives++
			}
			if s.e.find(h.txn) != j {
				return fmt.Errorf("lock: object %d lists txn %d twice among its holders", s.obj, h.txn)
			}
		}
		if exclusives > 0 && len(s.e.holders) > 1 {
			return fmt.Errorf("lock: object %d has an exclusive holder plus others", s.obj)
		}
		if len(s.e.holders) == 0 && len(s.e.queue) > 0 {
			return fmt.Errorf("lock: object %d has waiters but no holders", s.obj)
		}
	}
	if n != sh.n {
		return fmt.Errorf("lock: shard counts %d occupied slots, has %d", sh.n, n)
	}
	for _, e := range sh.free {
		if len(e.holders) > 0 || len(e.queue) > 0 {
			return fmt.Errorf("lock: recycled entry still carries %d holders and %d waiters", len(e.holders), len(e.queue))
		}
	}
	return nil
}
