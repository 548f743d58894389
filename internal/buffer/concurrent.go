package buffer

import (
	"fmt"
	"sync"

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
// Contains and IsDirty take the shard's read lock; everything else mutates
// residency, policy bookkeeping or statistics and takes the write lock.
type ConcurrentPool struct {
	shards []cshard
	mask   uint64
	cap    int
}

// cshard is one slice of the pool: a Pool and the lock that guards it.
type cshard struct {
	mu sync.RWMutex
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
		p.shards[i].Pool = *NewPool(ShardCapacity(capacity, n, i), policies[i])
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

// SetPageIO installs the physical page-transfer backend on every shard; nil
// (the default) keeps the pool a pure counting model. The transfers run
// under the shard lock so the frame leaves residency and reaches the page
// file atomically with respect to other faults on the shard — the
// straightforward ordering, paid for by holding the shard during the I/O.
// Only that one shard stalls; the others keep serving hits.
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
	return &p.shards[(uint64(pg)*fibMix>>32)&p.mask]
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
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.Pool.Contains(pg)
}

// MarkDirty flags a resident page as modified.
func (p *ConcurrentPool) MarkDirty(pg storage.PageID) error {
	sh := p.shardFor(pg)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.Pool.MarkDirty(pg)
}

// IsDirty reports whether pg is resident and dirty.
func (p *ConcurrentPool) IsDirty(pg storage.PageID) bool {
	sh := p.shardFor(pg)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.Pool.IsDirty(pg)
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
		sh.mu.RLock()
		n += sh.Pool.Resident()
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns the statistics summed across shards.
func (p *ConcurrentPool) Stats() Stats {
	var s Stats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		o := sh.Pool.Stats()
		sh.mu.RUnlock()
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
// and clears its dirty flag, one shard at a time under that shard's write
// lock — the shutdown/checkpoint sweep.
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
		sh.mu.RLock()
		n, quota := sh.Pool.Resident(), sh.Pool.Capacity()
		sh.mu.RUnlock()
		if n > quota {
			return fmt.Errorf("buffer: shard %d holds %d frames over quota %d", i, n, quota)
		}
	}
	return nil
}
