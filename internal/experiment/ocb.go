package experiment

import (
	"fmt"

	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/ocb"
	"oodb/internal/workload"
)

// OCB workload experiments: the synthetic-benchmark runs that exercise the
// policy stack outside the paper's OCT workload. "ocb.policies" sweeps the
// registered replacement policies across the three reference distributions;
// "ocb.traversals" breaks one default run down per operation kind.

func init() {
	register("ocb.policies", runOCBPolicies)
	register("ocb.traversals", runOCBTraversals)
}

// ocbConfig is the harness base configuration switched to the OCB workload.
func (h *Harness) ocbConfig() engine.Config {
	cfg := h.baseConfig()
	cfg.Workload = engine.WorkloadOCB
	return cfg
}

// runOCBPolicies compares the registered buffer replacement policies under
// the OCB workload, one row per reference distribution: the skew of the
// reference graph decides how much a policy's structural knowledge is worth.
func runOCBPolicies(h *Harness) (*Table, error) {
	// The registry names, so a cell shares its world with every other
	// experiment's run of the same policy; the columns keep their labels.
	policies := []core.Replacement{core.ReplLRU, "clock", core.ReplRandom, core.ReplContext}
	t := &Table{
		ID:      "ocb.policies",
		Title:   "OCB Workload -- Replacement Policy by Reference Distribution",
		XLabel:  "ref-dist",
		Unit:    "s (mean response time)",
		Columns: []string{"lru", "clock", "random", "context-sensitive"},
	}
	rows := make([]Row, len(ocb.RefDists))
	b := h.batch()
	for i, d := range ocb.RefDists {
		rows[i].Label = d.String()
		rows[i].Cells = make([]float64, len(policies))
		for j, p := range policies {
			cfg := h.ocbConfig()
			cfg.OCB.RefDist = d
			cfg.Replacement = p
			i, j := i, j
			b.add(cfg, func(r engine.Results) { rows[i].Cells[j] = r.MeanResponse })
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"all cells replay the same logical read stream; only physical policy differs")
	return t, nil
}

// ocbKinds lists the four OCB operation kinds in benchmark order.
var ocbKinds = []workload.QueryKind{
	workload.QOCBScan, workload.QOCBSimple,
	workload.QOCBHierarchy, workload.QOCBStochastic,
}

// runOCBTraversals breaks a default OCB run down per operation kind: how
// many transactions of each kind ran, their mean response, and the
// foreground I/Os each kind cost per transaction.
func runOCBTraversals(h *Harness) (*Table, error) {
	res, err := h.Run(h.ocbConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ocb.traversals",
		Title:   "OCB Workload -- Per-Operation-Kind Breakdown",
		XLabel:  "operation",
		Columns: []string{"txns", "mean_resp_s", "ios_per_txn"},
	}
	for _, k := range ocbKinds {
		name := k.String()
		n := res.KindCount[name]
		row := Row{Label: name, Cells: make([]float64, 3)}
		row.Cells[0] = float64(n)
		row.Cells[1] = res.KindResponse[name]
		if n > 0 {
			row.Cells[2] = float64(res.KindIOs[name]) / float64(n)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("overall hit ratio %.3f over %d logical reads", res.HitRatio, res.LogicalOps))
	return t, nil
}
