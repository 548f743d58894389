package main

import (
	"runtime"

	"oodb/internal/engine"
	"oodb/internal/ocb"
)

// workload is one named closed-loop saturation workload. Every workload is
// built from the engine's public constructors and a Config the CLIs could
// also express; nothing here reaches below engine.New / engine.NewConcurrent.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Serial selects the discrete-event engine.New driver instead of the
	// wall-clock engine.NewConcurrent one.
	Serial bool
	// File marks the WAL-backed file backend: the run also measures WAL
	// growth and recovery of the directory it closed.
	File bool
	// config returns the full-size configuration of ONE round. A measured
	// run is several identical rounds (fresh engine each), so per-round work
	// is fixed and identical on both sides of any comparison.
	config func() engine.Config
}

// A round is sized to ~0.5 s of run time beside ~0.5 s of setup, so a 20 s
// run holds ~20 rounds and setup_s is measured as often as ops_per_s. One
// long run cannot be told from a noisy neighbour on this two-core sandbox;
// many short ones can, because steady() keeps the quiet ones (README.md,
// "Steadiness").
var workloads = []workload{
	{
		Name: "oct-miss",
		Why:  "OCT paper mix, 6400 pages vs 50 frames: buffer fault/evict path, replacement policy and lock table do the work; no WAL",
		config: func() engine.Config {
			c := engine.DefaultConfig(0.05)
			c.ReadWriteRatio = 10
			c.Transactions = 100_000
			c.Warmup = 5_000
			return c
		},
	},
	{
		Name: "ocb-hot",
		Why:  "read-only zipf OCB whose hot set fits the cache (hit 0.996): traversal, generator and lock table dominate; buffer and WAL changes must not move it",
		config: func() engine.Config {
			c := ocbConfig()
			c.Transactions = 120_000
			c.Warmup = 5_000
			return c
		},
	},
	{
		Name: "ocb-durable",
		File: true,
		Why:  "OCB 3 reads per write on the file backend at fsync=always: commit+fsync held under the structure guard beside readers; device-bound",
		config: func() engine.Config {
			c := ocbConfig()
			c.OCB.ReadWriteRatio = 3
			c.Fsync = "always"
			c.Transactions = 6_000
			c.Warmup = 300
			return c
		},
	},
	{
		Name: "ocb-wal",
		File: true,
		Why:  "same write mix at fsync=never: WAL encoding/append, page-file I/O and clusterer CPU with the device taken out",
		config: func() engine.Config {
			c := ocbConfig()
			c.OCB.ReadWriteRatio = 3
			c.Fsync = "never"
			c.Transactions = 30_000
			c.Warmup = 1_000
			return c
		},
	},
	{
		Name:   "sim-paper",
		Serial: true,
		Why:    "serial discrete-event engine on the paper's 10-user OCT tier: event calendar, serial buffer pool, serial lock table, txlog accounting; no goroutines",
		config: func() engine.Config {
			c, err := engine.TierConfig(engine.TierDefault)
			if err != nil {
				panic(err) // the default tier is a compile-time constant of the engine
			}
			c.Transactions = 75_000
			return c
		},
	},
}

// ocbConfig is the OCB base every ocb-* workload shares: the paper-scale
// 25 MB / 50-frame sizing with loadgen's default zipf reference skew.
func ocbConfig() engine.Config {
	c := engine.DefaultConfig(0.05)
	c.Workload = engine.WorkloadOCB
	c.OCB = ocb.DefaultParams()
	c.OCB.RefDist = ocb.DistZipf
	return c
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSessions is min(nproc, 4): enough sessions to contend, never more
// than the cores that can run them, so the numbers measure the program and
// not the scheduler.
func defaultSessions() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// -smoke (tests, the oracle stage) shrinks the database by smokeDivisor and
// a round's operation count by smokeOps: 1/100 of the 10 s sizing.
const (
	smokeDivisor = 100
	smokeOps     = 5
)

// sized returns w's per-round configuration for the given options.
func (w workload) sized(o options) engine.Config {
	c := w.config()
	c.Seed = o.seed
	if o.smoke {
		small := engine.DefaultConfig(0.05 / smokeDivisor)
		c.DBBytes, c.Buffers = small.DBBytes, small.Buffers
		c.Transactions /= smokeOps
		c.Warmup /= smokeOps
	}
	if o.oracle {
		c.Users, c.Warmup = 1, 0
	}
	if w.File {
		c.Backend = "file"
	}
	return c
}
