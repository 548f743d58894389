// Package obs provides the zero-allocation, layer-local instrumentation
// seam threaded through the storage stack. Every layer (engine, core,
// buffer, storage, txlog, lock) reports its own events — candidate-search
// I/Os, split invocations and cut costs, boost/evict decisions,
// log-coalesce hits — through a Recorder the engine owns.
//
// The hook sites are gated on a nil recorder, so the default (uninstrumented)
// path costs one predictable branch and zero allocations; events are plain
// enum values and counts are passed by value, so even the counting
// implementation allocates nothing per event.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Event identifies one layer-local occurrence. The prefix names the layer
// that reports it.
type Event uint8

const (
	// --- buffer ---

	// PoolHit is a buffer-pool access satisfied by a resident page.
	PoolHit Event = iota
	// PoolMiss is an access that required bringing the page in.
	PoolMiss
	// PoolEvict is a replacement-policy eviction decision.
	PoolEvict
	// PoolFlush is a dirty-victim write-back forced by an eviction.
	PoolFlush
	// PoolBoost is a priority boost delivered to a resident page.
	PoolBoost

	// --- core: clustering ---

	// ClusterPlacement is one PlaceNew invocation.
	ClusterPlacement
	// ClusterCandidateIO is a physical read spent inspecting a candidate
	// page during placement or reclustering.
	ClusterCandidateIO
	// ClusterSplit is a page split actually performed; its cut cost
	// accumulates under the same event via Cost.
	ClusterSplit
	// ClusterFrontierFall is a clustered placement that found no usable
	// candidate and fell back to the allocation frontier.
	ClusterFrontierFall
	// ClusterMove is an object relocated by run-time reclustering.
	ClusterMove

	// --- core: prefetch ---

	// PrefetchRead is a physical read issued by prefetch-within-database.
	PrefetchRead
	// PrefetchBoost is a priority adjustment issued by
	// prefetch-within-buffer.
	PrefetchBoost

	// --- storage ---

	// StoreAllocPage is a page allocation (fresh or recycled).
	StoreAllocPage
	// StoreMove is an object moved between pages.
	StoreMove

	// --- txlog ---

	// LogCoalesce is an append whose before-image was already logged by the
	// same transaction — the write rode for free (Figure 5.5's effect).
	LogCoalesce
	// LogBeforeImage is a physical I/O logging a page's original image.
	LogBeforeImage
	// LogBufferFlush is a physical I/O from the circular buffer filling.
	LogBufferFlush

	// --- lock ---

	// LockGrant is an immediately granted lock request.
	LockGrant
	// LockConflict is a lock request that had to queue.
	LockConflict

	// --- engine ---

	// EngineTxn is one executed transaction.
	EngineTxn
	// EngineBackgroundIO is an asynchronous prefetch I/O dispatched to the
	// disks outside any transaction's response path.
	EngineBackgroundIO

	// --- engine: OCB per-operation-kind breakdown ---
	// One hit/io pair per OCB operation kind: a buffer access attributed to
	// the kind of the transaction making it, split by whether the page was
	// resident. Together they give the per-kind I/O and hit-rate breakdown.

	// OCBScanHit / OCBScanIO: set-oriented extent scans.
	OCBScanHit
	OCBScanIO
	// OCBSimpleHit / OCBSimpleIO: simple traversals along configuration
	// references.
	OCBSimpleHit
	OCBSimpleIO
	// OCBHierarchyHit / OCBHierarchyIO: hierarchy traversals along
	// inheritance links.
	OCBHierarchyHit
	OCBHierarchyIO
	// OCBStochasticHit / OCBStochasticIO: stochastic traversals.
	OCBStochasticHit
	OCBStochasticIO
	// OCBInsertHit / OCBInsertIO: object inserts (reference-target reads
	// plus the pages the new object dirties).
	OCBInsertHit
	OCBInsertIO
	// OCBDeleteHit / OCBDeleteIO: subtree deletes.
	OCBDeleteHit
	OCBDeleteIO
	// OCBUpdateHit / OCBUpdateIO: attribute updates.
	OCBUpdateHit
	OCBUpdateIO
	// OCBRewireHit / OCBRewireIO: reference rewirings.
	OCBRewireHit
	OCBRewireIO

	// --- storage: durability (file backend) ---

	// WALAppend is one record appended to the write-ahead log.
	WALAppend
	// WALFsync is one fsync of the write-ahead log file.
	WALFsync
	// StorePageRead is one physical page-frame read from the page file.
	StorePageRead
	// StorePageWrite is one physical page-frame write to the page file.
	StorePageWrite
	// WALRecoveryReplayed is one committed mutation record applied by WAL
	// replay during recovery.
	WALRecoveryReplayed

	// NumEvents bounds the event space; counting recorders size their
	// arrays with it.
	NumEvents
)

var eventNames = [NumEvents]string{
	PoolHit:             "pool.hit",
	PoolMiss:            "pool.miss",
	PoolEvict:           "pool.evict",
	PoolFlush:           "pool.flush",
	PoolBoost:           "pool.boost",
	ClusterPlacement:    "cluster.placement",
	ClusterCandidateIO:  "cluster.candidate_io",
	ClusterSplit:        "cluster.split",
	ClusterFrontierFall: "cluster.frontier_fall",
	ClusterMove:         "cluster.move",
	PrefetchRead:        "prefetch.read",
	PrefetchBoost:       "prefetch.boost",
	StoreAllocPage:      "store.alloc_page",
	StoreMove:           "store.move",
	LogCoalesce:         "log.coalesce",
	LogBeforeImage:      "log.before_image",
	LogBufferFlush:      "log.buffer_flush",
	LockGrant:           "lock.grant",
	LockConflict:        "lock.conflict",
	EngineTxn:           "engine.txn",
	EngineBackgroundIO:  "engine.background_io",
	OCBScanHit:          "ocb.scan.hit",
	OCBScanIO:           "ocb.scan.io",
	OCBSimpleHit:        "ocb.simple.hit",
	OCBSimpleIO:         "ocb.simple.io",
	OCBHierarchyHit:     "ocb.hierarchy.hit",
	OCBHierarchyIO:      "ocb.hierarchy.io",
	OCBStochasticHit:    "ocb.stochastic.hit",
	OCBStochasticIO:     "ocb.stochastic.io",
	OCBInsertHit:        "ocb.insert.hit",
	OCBInsertIO:         "ocb.insert.io",
	OCBDeleteHit:        "ocb.delete.hit",
	OCBDeleteIO:         "ocb.delete.io",
	OCBUpdateHit:        "ocb.update.hit",
	OCBUpdateIO:         "ocb.update.io",
	OCBRewireHit:        "ocb.rewire.hit",
	OCBRewireIO:         "ocb.rewire.io",
	WALAppend:           "wal.append",
	WALFsync:            "wal.fsync",
	StorePageRead:       "store.page_read",
	StorePageWrite:      "store.page_write",
	WALRecoveryReplayed: "wal.recovery_replayed",
}

// String names the event as "layer.event".
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return fmt.Sprintf("obs.Event(%d)", uint8(e))
}

// Recorder receives layer-local events. Implementations must be cheap: hook
// sites sit on hot paths and call with plain values only. A nil Recorder
// field means "not instrumented"; hook sites gate on that, so implementations
// never see a nil receiver dance.
type Recorder interface {
	// Count adds n occurrences of e.
	Count(e Event, n int)
	// Cost accumulates a real-valued cost under e (e.g. a split's cut cost).
	Cost(e Event, v float64)
}

// Counters is the counting Recorder: fixed arrays indexed by event, so
// recording allocates nothing.
//
// Counters is not safe for concurrent use; each engine owns one.
type Counters struct {
	counts [NumEvents]int64
	costs  [NumEvents]float64
}

// Count implements Recorder.
func (c *Counters) Count(e Event, n int) {
	if e < NumEvents {
		c.counts[e] += int64(n)
	}
}

// Cost implements Recorder.
func (c *Counters) Cost(e Event, v float64) {
	if e < NumEvents {
		c.costs[e] += v
	}
}

// CountOf returns the accumulated count for e.
func (c *Counters) CountOf(e Event) int64 {
	if e < NumEvents {
		return c.counts[e]
	}
	return 0
}

// CostOf returns the accumulated cost for e.
func (c *Counters) CostOf(e Event) float64 {
	if e < NumEvents {
		return c.costs[e]
	}
	return 0
}

// Reset zeroes all counters and costs.
func (c *Counters) Reset() {
	c.counts = [NumEvents]int64{}
	c.costs = [NumEvents]float64{}
}

// Render formats the non-zero counters as aligned "event  count [cost]"
// lines, sorted by event name — the report the -observe CLI flag prints.
func (c *Counters) Render() string {
	type row struct {
		name  string
		count int64
		cost  float64
	}
	var rows []row
	for e := Event(0); e < NumEvents; e++ {
		if c.counts[e] == 0 && c.costs[e] == 0 {
			continue
		}
		rows = append(rows, row{e.String(), c.counts[e], c.costs[e]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		if r.cost != 0 {
			fmt.Fprintf(&b, "%-24s %12d  cost=%.4f\n", r.name, r.count, r.cost)
		} else {
			fmt.Fprintf(&b, "%-24s %12d\n", r.name, r.count)
		}
	}
	return b.String()
}
