package core

import (
	"oodb/internal/buffer"
	"oodb/internal/model"
	"oodb/internal/obs"
	"oodb/internal/storage"
)

// PrefetchStats aggregates prefetch activity.
type PrefetchStats struct {
	GroupPages    int // pages in computed prefetch groups
	PrefetchReads int // physical reads issued (within-DB only)
	BoostsIssued  int // priority adjustments (within-buffer)
}

// Prefetcher implements the three prefetch scopes of Table 4.1 over the
// structural neighborhoods of accessed objects. It is the reference
// implementation of PrefetchStrategy.
type Prefetcher struct {
	Graph *model.Graph
	Store storage.Backend
	Pool  buffer.Frames

	Policy PrefetchPolicy
	Hints  HintPolicy
	Hint   Hint

	// Stats. The fields stay public for direct consumers; Stats() is the
	// PrefetchStrategy view.
	GroupPages    int // pages in computed prefetch groups
	PrefetchReads int // physical reads issued (within-DB only)
	BoostsIssued  int // priority adjustments (within-buffer)

	rec obs.Recorder // nil = uninstrumented

	groupBuf []storage.PageID // reusable prefetch-group buffer
	iosBuf   []PhysIO         // reusable I/O accumulator (within-DB)
}

// Stats implements PrefetchStrategy.
func (pf *Prefetcher) Stats() PrefetchStats {
	return PrefetchStats{
		GroupPages:    pf.GroupPages,
		PrefetchReads: pf.PrefetchReads,
		BoostsIssued:  pf.BoostsIssued,
	}
}

// ResetStats implements PrefetchStrategy.
func (pf *Prefetcher) ResetStats() {
	pf.GroupPages, pf.PrefetchReads, pf.BoostsIssued = 0, 0, 0
}

// SetRecorder installs the instrumentation hook; nil disables it.
func (pf *Prefetcher) SetRecorder(r obs.Recorder) { pf.rec = r }

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
		// Priority adjustment only; never an I/O.
		for _, pg := range group {
			if pf.Pool.Contains(pg) {
				pf.Pool.Boost(pg)
				pf.BoostsIssued++
				if pf.rec != nil {
					pf.rec.Count(obs.PrefetchBoost, 1)
				}
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
				if pf.rec != nil {
					pf.rec.Count(obs.PrefetchRead, 1)
				}
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
