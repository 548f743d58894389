package buffer

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"oodb/internal/storage"
)

// ConcurrentPool is the goroutine-safe buffer pool behind the concurrent
// multi-session engine: locked shards of Pool. Pages route to a shard by
// page-ID hash (the same Fibonacci mix the lock table uses) and every
// operation is the shard's Pool method under the shard's lock, so the fault
// path, dirty tracking and statistics are Pool's own. What the sharding
// changes is victim order — it is shard-local, each shard owning its slice
// of the capacity and its own policy instance — traded for parallelism: a
// session faulting a page on one shard never blocks a session hitting on
// another.
//
// Every method takes the shard's lock. A session that calls through its own
// View (NewView) serves most hits without it: see View.
type ConcurrentPool struct {
	shards []cshard
	mask   uint64
	cap    int
}

// cshard pads a shard to whole 128-byte blocks: neighbouring shards'
// mutexes and counters share no cache line nor adjacent-line pair. The pad
// is never empty: Go sizes a struct ending in a zero-length field one word
// past its last real field.
type cshard struct {
	shardState
	_ [128 - unsafe.Sizeof(shardState{})%128]byte
}

// shardState is one slice of the pool: a Pool, the lock that guards it, and
// its eviction epoch.
type shardState struct {
	// epoch counts the pages that have left this shard's frame table. The
	// Pool bumps it under mu before a page leaves; views load it without the
	// lock on every hit, so it keeps a 128-byte block of its own, away from
	// the lines every locked operation writes.
	epoch atomic.Uint64
	_     [128 - 8]byte
	mu    sync.Mutex
	Pool
}

// NewConcurrentPool builds a pool of the given total frame capacity over
// len(policies) shards (must be a power of two). Each shard gets its own
// policy instance — construct them with PolicyConfig.Frames set to the
// per-shard capacity (ShardCapacity helps) — and an equal slice of the
// capacity, so victim pressure on one shard never disturbs another.
func NewConcurrentPool(capacity int, policies []Policy) (*ConcurrentPool, error) {
	n := len(policies)
	if n == 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("buffer: concurrent pool needs a power-of-two shard count, got %d", n)
	}
	if capacity < n {
		return nil, fmt.Errorf("buffer: concurrent pool capacity %d below shard count %d", capacity, n)
	}
	p := &ConcurrentPool{
		shards: make([]cshard, n),
		mask:   uint64(n - 1),
		cap:    capacity,
	}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.Pool = *NewPool(ShardCapacity(capacity, n, i), policies[i])
		sh.Pool.epoch = &sh.epoch
	}
	return p, nil
}

// ShardCapacity returns shard i's frame quota when capacity spreads over n
// shards: capacity/n, with the remainder distributed one frame at a time to
// the low shards so the quotas sum exactly to capacity.
func ShardCapacity(capacity, n, i int) int {
	c := capacity / n
	if i < capacity%n {
		c++
	}
	return c
}

// SetPageIO installs the page-transfer counter on every shard; nil (the
// default) counts nothing. A transfer is a counter increment under the
// shard lock: frames carry no bytes, so there is no I/O to hold the shard
// through.
func (p *ConcurrentPool) SetPageIO(io storage.PageIO) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.Pool.SetPageIO(io)
		sh.mu.Unlock()
	}
}

// Shards returns the shard count.
func (p *ConcurrentPool) Shards() int { return len(p.shards) }

// Capacity returns the total frame count.
func (p *ConcurrentPool) Capacity() int { return p.cap }

// fibMix spreads sequential page IDs across shards (Fibonacci hashing).
const fibMix = 0x9E3779B97F4A7C15

func (p *ConcurrentPool) shardFor(pg storage.PageID) *cshard {
	return &p.shards[p.shardIndex(pg)]
}

func (p *ConcurrentPool) shardIndex(pg storage.PageID) int {
	return int((uint64(pg) * fibMix >> 32) & p.mask)
}

// Access brings pg into the pool (if needed) and touches it.
func (p *ConcurrentPool) Access(pg storage.PageID) (AccessResult, error) {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.Access(pg)
}

// Install makes pg resident without a physical read.
func (p *ConcurrentPool) Install(pg storage.PageID) (AccessResult, error) {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.Install(pg)
}

// Contains reports whether pg is resident.
func (p *ConcurrentPool) Contains(pg storage.PageID) bool {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.Contains(pg)
}

// MarkDirty flags a resident page as modified.
func (p *ConcurrentPool) MarkDirty(pg storage.PageID) error {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.MarkDirty(pg)
}

// Boost raises pg's replacement priority if it is resident and reports
// whether it was. Probe and boost happen under one hold of the shard lock,
// so a true answer means the boost landed: no eviction can come between.
func (p *ConcurrentPool) Boost(pg storage.PageID) bool {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.Boost(pg)
}

// Resident returns the number of resident pages.
func (p *ConcurrentPool) Resident() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.Pool.Resident()
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the statistics summed across shards.
func (p *ConcurrentPool) Stats() Stats {
	var s Stats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		o := sh.Pool.Stats()
		sh.mu.Unlock()
		s.Hits += o.Hits
		s.Misses += o.Misses
		s.Evictions += o.Evictions
		s.Flushes += o.Flushes
		s.Boosts += o.Boosts
	}
	return s
}

// ResetStats zeroes the statistics on every shard.
func (p *ConcurrentPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.Pool.ResetStats()
		sh.mu.Unlock()
	}
}

// FlushDirty writes every dirty resident page through the PageIO backend
// and clears its dirty flag, one shard at a time under that shard's lock —
// the shutdown/checkpoint sweep.
func (p *ConcurrentPool) FlushDirty() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		err := sh.Pool.FlushDirty()
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckInvariants validates that every shard's occupancy is within its
// quota. Quiesce the pool before calling.
func (p *ConcurrentPool) CheckInvariants() error {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n, quota := sh.Pool.Resident(), sh.Pool.Capacity()
		sh.mu.Unlock()
		if n > quota {
			return fmt.Errorf("buffer: shard %d holds %d frames over quota %d", i, n, quota)
		}
	}
	return nil
}
