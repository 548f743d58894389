package engine

import (
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// componentSpread returns the average number of distinct pages spanned by
// the component sets of the given composites (only those with >=2
// components are counted).
func componentSpread(e *Engine, composites []model.ObjectID) (float64, int) {
	sum := 0.0
	n := 0
	for _, id := range composites {
		o := e.graph.Object(id)
		if o == nil || len(o.Components()) < 2 {
			continue
		}
		seen := map[storage.PageID]struct{}{}
		for _, c := range o.Components() {
			seen[e.store.PageOf(c)] = struct{}{}
		}
		sum += float64(len(seen))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func TestColocationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("informational")
	}
	for _, cl := range []core.ClusterPolicy{core.PolicyNoCluster, core.PolicyWithinBuffer, core.PolicyIOLimit2, core.PolicyNoLimit} {
		cfg := DefaultConfig(0.02)
		cfg.Transactions = 1
		cfg.Density = workload.HighDensity
		cfg.Cluster = cl
		cfg.Split = core.NoSplit
		e := fresh(t, cfg)
		blockSpread, bn := componentSpread(e, e.db.Blocks)
		rootSpread, rn := componentSpread(e, e.db.Roots)
		t.Logf("%-22s block children span %.2f pages (n=%d); root children span %.2f pages (n=%d)",
			cl, blockSpread, bn, rootSpread, rn)
	}
}
