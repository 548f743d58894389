package experiment

import (
	"oodb/internal/engine"
	"oodb/internal/ocb"
)

// The cross-paper clustering tournament: Chang & Katz's affinity clusterer
// against Darmont's dynamic policies (DSTC, the statistics-driven
// reorganizer, and DRO, No_Cluster's fill plus an evacuation sweep), with
// noop, the paper's own No_Cluster, as the floor. Every scenario replays
// the identical logical operation stream through all four strategies — the
// differential oracle pins that equivalence in the test suite — so the
// table isolates what placement policy alone is worth, across the paper's
// OCT workload, read-only and write-enabled OCB, and the hostile traffic
// shapes (multi-tenant zipf skew, a flash crowd, working-set drift).

func init() {
	register("tournament", runTournament)
}

// tournamentStrategies lists the contenders in column order.
var tournamentStrategies = []string{"affinity", "dstc", "dro", "noop"}

// tournamentScenario is one row of the tournament: a named configuration
// mutation applied to the harness base.
type tournamentScenario struct {
	label string
	mut   func(*engine.Config)
}

// tournamentScenarios builds the scenario rows. Transaction-count-relative
// knobs (the flash-crowd window) derive from the harness options, so the
// same scenario set scales from smoke tier to full runs.
func tournamentScenarios(txns int) []tournamentScenario {
	return []tournamentScenario{
		{"oct", func(cfg *engine.Config) {}},
		{"ocb-read", func(cfg *engine.Config) {
			cfg.Workload = engine.WorkloadOCB
		}},
		{"ocb-rw2", func(cfg *engine.Config) {
			cfg.Workload = engine.WorkloadOCB
			cfg.OCB.ReadWriteRatio = 2
		}},
		{"ocb-tenants", func(cfg *engine.Config) {
			cfg.Workload = engine.WorkloadOCB
			cfg.OCB.ReadWriteRatio = 3
			cfg.OCB.Tenants = 8
			cfg.OCB.TenantSkew = 2
		}},
		{"ocb-flash", func(cfg *engine.Config) {
			cfg.Workload = engine.WorkloadOCB
			cfg.OCB.ReadWriteRatio = 3
			cfg.FlashFactor = 4
			cfg.FlashAt = txns / 3
			cfg.FlashLen = txns / 4
		}},
		{"ocb-drift", func(cfg *engine.Config) {
			cfg.Workload = engine.WorkloadOCB
			cfg.OCB.ReadWriteRatio = 3
			cfg.OCB.RefDist = ocb.DistClustered
			cfg.OCB.DriftPeriod = txns / 8
		}},
	}
}

// runTournament sweeps every contender across every scenario and reports
// mean response time per cell — lower is better placement.
func runTournament(h *Harness) (*Table, error) {
	scenarios := tournamentScenarios(h.opt.Transactions)
	t := &Table{
		ID:      "tournament",
		Title:   "Clustering Tournament -- Affinity vs. DSTC vs. DRO vs. Noop",
		XLabel:  "scenario",
		Unit:    "s (mean response time)",
		Columns: tournamentStrategies,
	}
	rows := make([]Row, len(scenarios))
	b := h.batch()
	for i, sc := range scenarios {
		rows[i].Label = sc.label
		rows[i].Cells = make([]float64, len(tournamentStrategies))
		for j, strat := range tournamentStrategies {
			cfg := h.baseConfig()
			sc.mut(&cfg)
			cfg.ClusterStrategy = strat
			i, j := i, j
			b.add(cfg, func(r engine.Results) { rows[i].Cells[j] = r.MeanResponse })
		}
	}
	if err := b.run(); err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes,
		"all cells in a row replay the same logical operation stream; only the clustering strategy differs",
		"write rows journal every dstc/dro relocation like any other placement",
	)
	return t, nil
}
