package buffer

import "oodb/internal/storage"

// touchBatch is how many hits a View defers per shard before it hands them
// to the shard's policy: BP-Wrapper's batch (Ding, Jiang and Zhang, ICDE
// 2009). It bounds how far a policy's view of one session's recency can lag
// behind that session.
const touchBatch = 64

// View is one session's handle on a ConcurrentPool. It serves a hit on a
// page it has seen resident without the shard lock: the touch goes on a
// private per-shard list, and the shard's policy receives it later, in
// order, before anything else this view does on that shard. Every other
// call takes the shard lock once, exactly as the pool's own method does.
//
// A hit may skip the lock only if the page is provably still resident. The
// view stamps each page it sees resident under a shard's lock with that
// shard's eviction epoch + 1; the epoch moves before any page leaves the
// shard, so a stamp that still equals epoch + 1 proves no page — this one
// included — has left since. The proof costs one atomic load and writes
// nothing shared. A page evicted after the check was resident when the
// check ran, and frames carry no bytes, so nothing is read from a reused
// frame: the late touch is counted as the hit it was and skips the policy.
//
// With one view, every shard's policy sees exactly the pool's own sequence
// of notifications, so victims, Stats and AccessResults are identical. With
// several, a policy sees another session's touches at most touchBatch late.
// A View is not safe for concurrent use; pending touches reach Stats only
// once drained, so Drain before reading the pool's statistics.
type View struct {
	p       *ConcurrentPool
	stamps  PageTable[uint64]
	pending []touchList // one per shard
	eager   bool
}

// touchList is a shard's deferred touches, oldest first.
type touchList struct {
	n   int
	pgs [touchBatch]storage.PageID
}

var _ Frames = (*View)(nil)

// NewView returns a fresh view of p for one session.
func (p *ConcurrentPool) NewView() *View {
	return &View{p: p, pending: make([]touchList, len(p.shards))}
}

// Access brings pg into the pool (if needed) and touches it.
func (v *View) Access(pg storage.PageID) (AccessResult, error) {
	i := v.p.shardIndex(pg)
	sh, q := &v.p.shards[i], &v.pending[i]
	if s := v.stamps.Get(pg); !v.eager && s != 0 && s == sh.epoch.Load()+1 {
		q.pgs[q.n] = pg
		if q.n++; q.n == touchBatch {
			sh.mu.Lock()
			v.drain(sh, q)
			sh.mu.Unlock()
		}
		return AccessResult{Hit: true}, nil
	}
	sh.mu.Lock()
	v.drain(sh, q)
	res, err := sh.Pool.Access(pg)
	if err == nil {
		v.stamp(sh, pg)
	}
	sh.mu.Unlock()
	return res, err
}

// Install makes pg resident without a physical read.
func (v *View) Install(pg storage.PageID) (AccessResult, error) {
	sh := v.lock(pg)
	res, err := sh.Pool.Install(pg)
	if err == nil {
		v.stamp(sh, pg)
	}
	sh.mu.Unlock()
	return res, err
}

// Contains reports whether pg is resident.
func (v *View) Contains(pg storage.PageID) bool {
	sh := v.lock(pg)
	ok := sh.Pool.Contains(pg)
	if ok {
		v.stamp(sh, pg)
	}
	sh.mu.Unlock()
	return ok
}

// MarkDirty flags a resident page as modified.
func (v *View) MarkDirty(pg storage.PageID) error {
	sh := v.lock(pg)
	err := sh.Pool.MarkDirty(pg)
	if err == nil {
		v.stamp(sh, pg)
	}
	sh.mu.Unlock()
	return err
}

// Boost raises pg's replacement priority if it is resident and reports
// whether it was.
func (v *View) Boost(pg storage.PageID) bool {
	sh := v.lock(pg)
	ok := sh.Pool.Boost(pg)
	if ok {
		v.stamp(sh, pg)
	}
	sh.mu.Unlock()
	return ok
}

// Drain hands every deferred touch to its shard's policy. A session drains
// when it ends, on every exit path, so no hit goes uncounted.
func (v *View) Drain() {
	for i := range v.pending {
		if q := &v.pending[i]; q.n > 0 {
			sh := &v.p.shards[i]
			sh.mu.Lock()
			v.drain(sh, q)
			sh.mu.Unlock()
		}
	}
}

// SetEager drains and, while on, serves every call under the shard lock.
// A session turns it on for a write: other code (the shared clusterer) then
// calls the pool directly, and a touch deferred past those calls would
// reach the policy out of order.
func (v *View) SetEager(on bool) {
	v.Drain()
	v.eager = on
}

// lock takes pg's shard lock and drains the shard's deferred touches, so
// the operation that follows sees them first.
func (v *View) lock(pg storage.PageID) *cshard {
	i := v.p.shardIndex(pg)
	sh := &v.p.shards[i]
	sh.mu.Lock()
	v.drain(sh, &v.pending[i])
	return sh
}

// drain hands q's touches to sh's pool in order and restamps each page
// still resident; sh's lock is held.
func (v *View) drain(sh *cshard, q *touchList) {
	e := sh.epoch.Load() + 1
	for _, pg := range q.pgs[:q.n] {
		if sh.Pool.hit(pg) {
			v.stamps.Set(pg, e)
		}
	}
	q.n = 0
}

// stamp records that pg is resident in sh as of sh's current epoch; sh's
// lock is held.
func (v *View) stamp(sh *cshard, pg storage.PageID) {
	v.stamps.Set(pg, sh.epoch.Load()+1)
}
