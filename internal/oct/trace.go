package oct

import "math/rand"

// ToolStats summarizes the instrumented invocations of one tool.
type ToolStats struct {
	Name        string
	Invocations int
	Reads       int
	Writes      int
	RWRatio     float64
	IORate      float64
	LowShare    float64
	MedShare    float64
	HighShare   float64
}

// Trace runs `invocations` instrumented invocations of every tool in the
// toolset and aggregates per-tool statistics — the synthetic stand-in for
// the paper's 5000-invocation trace collection.
func Trace(invocations int, seed int64) []ToolStats {
	if invocations < 1 {
		invocations = 1
	}
	var out []ToolStats
	for _, p := range Toolset() {
		rng := rand.New(rand.NewSource(seed ^ int64(len(p.Name))<<32 ^ int64(p.Name[0])))
		st := ToolStats{Name: p.Name, Invocations: invocations}
		var seconds float64
		var low, med, high float64
		for i := 0; i < invocations; i++ {
			m := NewManager()
			s := p.Run(m, rng)
			st.Reads += s.Reads()
			st.Writes += s.Writes()
			seconds += s.Seconds
			l, md, h := s.DensityShares()
			low += l
			med += md
			high += h
		}
		if st.Writes > 0 {
			st.RWRatio = float64(st.Reads) / float64(st.Writes)
		} else {
			st.RWRatio = float64(st.Reads)
		}
		if seconds > 0 {
			st.IORate = float64(st.Reads+st.Writes) / seconds
		}
		n := float64(invocations)
		st.LowShare, st.MedShare, st.HighShare = low/n, med/n, high/n
		out = append(out, st)
	}
	return out
}
