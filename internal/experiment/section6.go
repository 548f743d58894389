package experiment

import (
	"fmt"
	"math"

	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/factorial"
	"oodb/internal/workload"
)

func init() {
	register("fig6.1", Fig61)
	register("fig6.2", Fig62)
}

// factorialDesign is the paper's eight-control-parameter two-level design
// (Table 4.1 labels F through M).
func (h *Harness) factorialDesign() *factorial.Design {
	return &factorial.Design{Factors: []factorial.Factor{
		{Name: "Structure density", Low: "low-3", High: "high-10"},
		{Name: "Read/write ratio", Low: "5", High: "100"},
		{Name: "Clustering policy", Low: "No_Cluster", High: "No_limit"},
		{Name: "Page splitting policy", Low: "No_Splitting", High: "NP_Split"},
		{Name: "User hint policy", Low: "No_hint", High: "User_hint"},
		{Name: "Buffer replacement", Low: "LRU", High: "Context-sensitive"},
		{Name: "Buffer pool size", Low: "100", High: "10000"},
		{Name: "Prefetch policy", Low: "No_prefetch", High: "Prefetch_within_DB"},
	}}
}

// factorialConfig maps a level bitmask to an engine configuration.
func (h *Harness) factorialConfig(mask uint) engine.Config {
	cfg := h.baseConfig()
	if mask&(1<<0) == 0 {
		cfg.Density = workload.LowDensity
	} else {
		cfg.Density = workload.HighDensity
	}
	if mask&(1<<1) == 0 {
		cfg.ReadWriteRatio = 5
	} else {
		cfg.ReadWriteRatio = 100
	}
	if mask&(1<<2) == 0 {
		cfg.Cluster = core.PolicyNoCluster
	} else {
		cfg.Cluster = core.PolicyNoLimit
	}
	if mask&(1<<3) == 0 {
		cfg.Split = core.NoSplit
	} else {
		cfg.Split = core.NPSplit
	}
	if mask&(1<<4) == 0 {
		cfg.Hints = core.NoHints
	} else {
		cfg.Hints = core.UserHints
	}
	if mask&(1<<5) == 0 {
		cfg.Replacement = core.ReplLRU
	} else {
		cfg.Replacement = core.ReplContext
	}
	scale := h.opt.Scale
	if mask&(1<<6) == 0 {
		cfg.Buffers = clampBuffers(100, scale)
	} else {
		cfg.Buffers = clampBuffers(10000, scale)
	}
	if mask&(1<<7) == 0 {
		cfg.Prefetch = core.NoPrefetch
	} else {
		cfg.Prefetch = core.PrefetchWithinDB
	}
	return cfg
}

func clampBuffers(paper int, scale float64) int {
	b := int(float64(paper) * scale)
	if b < 4 {
		b = 4
	}
	return b
}

// factorialResponses runs all 2^8 level combinations — embarrassingly
// parallel, submitted as one batch — and returns the mean response times
// indexed by level bitmask.
func (h *Harness) factorialResponses(d *factorial.Design) ([]float64, error) {
	n := d.Runs()
	cfgs := make([]engine.Config, n)
	for m := 0; m < n; m++ {
		cfgs[m] = h.factorialConfig(uint(m))
	}
	res, err := h.RunConfigs(cfgs)
	if err != nil {
		return nil, err
	}
	y := make([]float64, n)
	for m, r := range res {
		y[m] = r.MeanResponse
	}
	return y, nil
}

// Fig61 regenerates Figure 6.1: the ranked absolute response-time effects
// of the eight control parameters and their combined (interaction) terms.
func Fig61(h *Harness) (*Table, error) {
	d := h.factorialDesign()
	y, err := h.factorialResponses(d)
	if err != nil {
		return nil, err
	}
	effects, err := factorial.Effects(d, y)
	if err != nil {
		return nil, err
	}
	ranked := factorial.Ranked(effects, 2)
	t := &Table{
		ID:      "fig6.1",
		Title:   "Overall Effect Analysis (two-level factorial)",
		XLabel:  "term",
		Unit:    "s (response-time change, low->high)",
		Columns: []string{"effect", "|effect|"},
	}
	limit := 20
	for i, e := range ranked {
		if i >= limit {
			break
		}
		t.Rows = append(t.Rows, Row{
			Label: d.TermName(e.Mask),
			Cells: []float64{e.Value, math.Abs(e.Value)},
		})
	}
	t.Notes = append(t.Notes,
		"paper: structure density and buffering policy most influence response time; page splitting has little influence")
	return t, nil
}

// Fig62 regenerates Figure 6.2: the pairwise interaction analysis. The
// paper reports no major interactions; minor interactions between density x
// buffering, R/W x clustering, R/W x splitting, density x clustering,
// density x splitting, and splitting x clustering; none between buffering x
// clustering, buffering x splitting, density x R/W, and R/W x buffering.
func Fig62(h *Harness) (*Table, error) {
	d := h.factorialDesign()
	y, err := h.factorialResponses(d)
	if err != nil {
		return nil, err
	}
	effects, err := factorial.Effects(d, y)
	if err != nil {
		return nil, err
	}
	// Negligibility threshold: 10% of the largest main effect.
	maxMain := 0.0
	for i := range d.Factors {
		v := math.Abs(effects[1<<uint(i)].Value)
		if v > maxMain {
			maxMain = v
		}
	}
	inters, err := factorial.ClassifyInteractions(d, y, 0.10*maxMain)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6.2",
		Title:   "Interaction Analysis (0=none, 1=minor, 2=major)",
		XLabel:  "pair",
		Unit:    "s",
		Columns: []string{"eff@lowJ", "eff@highJ", "class"},
	}
	majors := 0
	for _, in := range inters {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%s x %s", shortName(d.Factors[in.I].Name), shortName(d.Factors[in.J].Name)),
			Cells: []float64{in.EffectAtLowJ, in.EffectAtHighJ, float64(in.Class)},
		})
		if in.Class == factorial.MajorInteraction {
			majors++
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("major interactions found: %d (paper: none)", majors))
	return t, nil
}

func shortName(n string) string {
	switch n {
	case "Structure density":
		return "density"
	case "Read/write ratio":
		return "r/w"
	case "Clustering policy":
		return "cluster"
	case "Page splitting policy":
		return "split"
	case "User hint policy":
		return "hints"
	case "Buffer replacement":
		return "replace"
	case "Buffer pool size":
		return "bufsize"
	case "Prefetch policy":
		return "prefetch"
	}
	return n
}
