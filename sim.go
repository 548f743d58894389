package oodb

import (
	"oodb/internal/engine"
	"oodb/internal/experiment"
)

// Simulation-facing API: run the paper's ten-user engineering-database
// model, or regenerate its published tables and figures.

type (
	// SimConfig is a full simulation configuration (Table 4.1 parameters
	// plus mechanics). Build one with DefaultSimConfig and override fields.
	SimConfig = engine.Config
	// SimResults summarizes one simulation run.
	SimResults = engine.Results
	// ExperimentOptions scales experiment runs.
	ExperimentOptions = experiment.Options
	// ExperimentTable is a regenerated table or figure.
	ExperimentTable = experiment.Table
)

// DefaultSimConfig returns the paper's parameter set scaled by scale
// (1.0 = the full 500 MB database with 1000 buffer frames).
func DefaultSimConfig(scale float64) SimConfig { return engine.DefaultConfig(scale) }

// TierSimConfig returns the named scale tier's configuration ("default",
// "medium", "large"; "" selects default). Tiers bundle sizing and scale
// mechanics — see engine.TierConfig.
func TierSimConfig(name string) (SimConfig, error) { return engine.TierConfig(name) }

// RunSimulation executes one simulation run. Under a persistent backend
// the engine is closed afterwards — dirty buffers flushed, the WAL
// checkpointed — so the data directory is left recoverable; a close
// failure is reported even when the run itself succeeded.
func RunSimulation(cfg SimConfig) (SimResults, error) {
	e, err := engine.New(cfg)
	if err != nil {
		return SimResults{}, err
	}
	res, err := e.Run()
	if cerr := e.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return SimResults{}, err
	}
	return res, nil
}

// Concurrent load: the wall-clock counterpart of RunSimulation. N session
// goroutines drive one shared store; latency is real time, not simulated.

type (
	// ConcurrentOptions shapes a concurrent multi-session run: session
	// count, closed-loop think time or open-loop arrival rate.
	ConcurrentOptions = engine.ConcurrentOptions
	// ConcurrentResults summarizes a concurrent run: throughput, the
	// latency histogram, and the serial engine's logical observables.
	ConcurrentResults = engine.ConcurrentResults
)

// RunConcurrentLoad executes one concurrent multi-session run and verifies
// the shared structures' invariants afterwards. A one-session run produces
// the same logical digest as RunSimulation with Users=1 on the same
// configuration — the cross-engine oracle.
func RunConcurrentLoad(cfg SimConfig, opt ConcurrentOptions) (ConcurrentResults, error) {
	c, err := engine.NewConcurrent(cfg, opt)
	if err != nil {
		return ConcurrentResults{}, err
	}
	res, err := c.Run()
	if err == nil {
		err = c.CheckInvariants()
	}
	if cerr := c.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return ConcurrentResults{}, err
	}
	return res, nil
}

// RunSimulations executes a batch of simulation runs on a worker pool
// (opt.Workers wide, default GOMAXPROCS) and returns results in input
// order. Each run owns its own seeded simulator, so the results are
// identical to running the batch serially; duplicate configurations execute
// once and share their result.
func RunSimulations(cfgs []SimConfig, opt ExperimentOptions) ([]SimResults, error) {
	return experiment.NewHarness(opt).RunConfigs(cfgs)
}

// Experiments lists the available experiment IDs ("fig3.2" ... "fig6.2",
// "table5.1", "ext.*").
func Experiments() []string { return experiment.IDs() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, opt ExperimentOptions) (*ExperimentTable, error) {
	r, ok := experiment.Lookup(id)
	if !ok {
		return nil, &UnknownExperimentError{ID: id}
	}
	return r(experiment.NewHarness(opt))
}

// RunExperiments regenerates several experiments over one shared harness,
// so simulation runs that appear in multiple figures (for example the
// Figure 5.1 grid cells reused by Figures 5.2–5.4) execute once. The
// experiments run concurrently on the harness worker pool; tables come back
// in input order and match serial execution byte for byte.
func RunExperiments(ids []string, opt ExperimentOptions) ([]*ExperimentTable, error) {
	for _, id := range ids {
		if _, ok := experiment.Lookup(id); !ok {
			return nil, &UnknownExperimentError{ID: id}
		}
	}
	return experiment.NewHarness(opt).RunAll(ids)
}

// UnknownExperimentError reports an unregistered experiment ID.
type UnknownExperimentError struct{ ID string }

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	return "oodb: unknown experiment " + e.ID
}
