package engine

import "oodb/internal/core"

// adaptiveState implements the two run extensions: phase-varying read/write
// ratios, and the run-time clustering-policy selection the paper's
// conclusions recommend ("If the clustering mechanism can be selected based
// on the read/write ratio at run-time, we can get the best response time of
// both", Section 5.1).
type adaptiveState struct {
	// Phase scheduling.
	phaseLen int
	phases   []float64

	// Sliding read/write window.
	window  int
	history []bool // true = write
	pos     int
	filled  int
	writes  int

	threshold float64
	lowPolicy core.ClusterPolicy
	hiPolicy  core.ClusterPolicy

	// Switches counts adaptive policy changes (reported for the extension
	// experiment).
	Switches int
}

func newAdaptiveState(cfg Config) *adaptiveState {
	a := &adaptiveState{
		phases:    cfg.PhasedRW,
		threshold: adaptiveThreshold,
		window:    adaptiveWindow,
		lowPolicy: core.PolicyIOLimit2,
		hiPolicy:  core.PolicyNoLimit,
	}
	a.history = make([]bool, a.window)
	if len(a.phases) > 0 {
		a.phaseLen = cfg.Transactions / len(a.phases)
		if a.phaseLen < 1 {
			a.phaseLen = 1
		}
	}
	return a
}

// phaseRatio returns the read/write ratio for the phase containing
// transaction number n, or 0 if phases are not configured.
func (a *adaptiveState) phaseRatio(n int) float64 {
	if len(a.phases) == 0 {
		return 0
	}
	idx := n / a.phaseLen
	if idx >= len(a.phases) {
		idx = len(a.phases) - 1
	}
	return a.phases[idx]
}

// observe records one transaction and returns the observed read/write
// ratio over the window (or -1 until the window has some history).
func (a *adaptiveState) observe(isWrite bool) float64 {
	if a.filled == a.window {
		if a.history[a.pos] {
			a.writes--
		}
	} else {
		a.filled++
	}
	a.history[a.pos] = isWrite
	if isWrite {
		a.writes++
	}
	a.pos = (a.pos + 1) % a.window
	if a.filled < a.window/4 || a.writes == 0 {
		return -1
	}
	return float64(a.filled-a.writes) / float64(a.writes)
}

// policyFor maps an observed ratio to the clustering policy.
func (a *adaptiveState) policyFor(observed float64) core.ClusterPolicy {
	if observed >= a.threshold {
		return a.hiPolicy
	}
	return a.lowPolicy
}
