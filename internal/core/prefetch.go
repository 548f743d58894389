package core

import (
	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// Prefetcher implements the three prefetch scopes of Table 4.1 over the
// structural neighborhoods of accessed objects: after each root object
// access the engine hands it the touched object, and it may boost resident
// pages or return background read I/Os.
type Prefetcher struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	Policy PrefetchPolicy
	Hints  HintPolicy
	Hint   Hint

	// Activity counters.
	GroupPages    int // pages in computed prefetch groups
	PrefetchReads int // physical reads issued (within-DB only)
	BoostsIssued  int // priority adjustments the pool performed (within-buffer)

	groupBuf []storage.PageID // reusable prefetch-group buffer
	iosBuf   []PhysIO         // reusable I/O accumulator (within-DB)
}

// AppendExpandAccess appends to dst the physical I/Os a pool AccessResult
// implies: flush the dirty victim, then read the page.
func AppendExpandAccess(dst []PhysIO, res buffer.AccessResult, pg storage.PageID) []PhysIO {
	if res.Hit {
		return dst
	}
	if res.VictimDirty {
		dst = append(dst, WriteOf(res.Victim))
	}
	return append(dst, ReadOf(pg))
}

// OnAccess runs the prefetch policy after object o was touched, returning
// the physical I/Os prefetching triggered (empty except within-DB). The
// returned slice is backed by the prefetcher's scratch buffer and is valid
// until the next OnAccess call.
func (pf *Prefetcher) OnAccess(o *model.Object) ([]PhysIO, error) {
	if pf.Policy == NoPrefetch {
		return nil, nil
	}
	group := AppendPrefetchGroup(pf.groupBuf[:0], pf.Graph, pf.Store, o, pf.Hints, pf.Hint)
	pf.groupBuf = group
	pf.GroupPages += len(group)
	switch pf.Policy {
	case PrefetchWithinBuffer:
		// Priority adjustment only; never an I/O. Only a boost the pool
		// performed counts.
		for _, pg := range group {
			if pf.Pool.Boost(pg) {
				pf.BoostsIssued++
			}
		}
		return nil, nil
	case PrefetchWithinDB:
		ios := pf.iosBuf[:0]
		for _, pg := range group {
			res, err := pf.Pool.Access(pg)
			if err != nil {
				pf.iosBuf = ios
				return ios, err
			}
			if !res.Hit {
				pf.PrefetchReads++
			}
			ios = AppendExpandAccess(ios, res, pg)
			// Prefetched pages get the same high priority as the accessed
			// page.
			pf.Pool.Boost(pg)
		}
		pf.iosBuf = ios
		return ios, nil
	}
	return nil, nil
}
