// Package engine binds the functional storage stack (model, storage,
// buffer, core, txlog) to the discrete-event simulator, reproducing the
// paper's simulation model (Section 4): a workstation cluster of interactive
// users with think time, a workload-definition stage, a buffer manager, a
// cluster manager, a CPU, and an I/O subsystem of FCFS disks plus a
// dedicated log disk. A logical I/O expands into zero to three physical
// I/Os (dirty-victim flush, transaction-log write, data read), exactly the
// worst case the paper describes.
package engine

import (
	"fmt"
	"io"
	"math"
	"reflect"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/ocb"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// Workload family names for Config.Workload.
const (
	// WorkloadOCT is the paper's engineering-design workload (Section 4),
	// the default when Config.Workload is empty.
	WorkloadOCT = "oct"
	// WorkloadOCB is the OCB-style synthetic workload (internal/ocb).
	WorkloadOCB = "ocb"
)

// Config carries the static and control parameters of Table 4.1 plus the
// simulation-mechanics knobs.
type Config struct {
	// --- Static parameters (Table 4.1, defaults in parentheses) ---

	// DBBytes is the database size (500 MB, scaled).
	DBBytes int
	// PageSize is the page size in bytes (4 KB).
	PageSize int
	// Users is the number of interactive users (10).
	Users int
	// Disks is the number of data disks (10); the log gets its own disk.
	Disks int
	// ThinkTime is the mean user think time in seconds (4 s, exponential).
	ThinkTime float64

	// --- Control parameters (Table 4.1) ---

	// Density is the structure-density class (F).
	Density workload.DensityClass
	// ReadWriteRatio is reads per write (G).
	ReadWriteRatio float64
	// Cluster is the clustering policy (H).
	Cluster core.ClusterPolicy
	// Split is the page-splitting policy (I).
	Split core.SplitPolicy
	// Hints is the user-hint policy (J).
	Hints core.HintPolicy
	// Replacement names the buffer replacement policy (K) in the policy
	// registry: one of the paper's three or any other registered policy
	// (e.g. "clock"). Empty means LRU.
	Replacement core.Replacement
	// Buffers is the buffer-pool size in frames (L: 100/1000/10000, scaled).
	Buffers int
	// Prefetch is the prefetch policy (M).
	Prefetch core.PrefetchPolicy

	// --- Workload selection ---

	// Workload selects the workload family driving the run: "" or "oct" for
	// the paper's engineering-design workload, "ocb" for the OCB-style
	// synthetic workload (internal/ocb). The density and read/write-ratio
	// control parameters apply only to the OCT family.
	Workload string
	// OCB parameterizes the OCB object base and operation mix when Workload
	// is "ocb"; the zero value means the OCB defaults.
	OCB ocb.Params

	// --- Simulation mechanics ---

	// Seed drives all random streams; identical seeds replay identically.
	Seed int64
	// Transactions is the number of measured transactions to complete.
	Transactions int
	// Warmup is the number of initial transactions excluded from the
	// response-time and I/O statistics (they still execute and warm the
	// buffer pool). Zero keeps the paper-style full-window measurement.
	Warmup int
	// Locking enables object-granularity concurrency control: transactions
	// take shared/exclusive locks on their primary objects (the composite
	// root of a navigation, the objects a write touches) and queue on
	// conflict. The paper's model locks at object granularity; disable only
	// to isolate storage effects. Locking is the serial driver's model: the
	// concurrent driver and the library take no object locks and run with
	// it cleared.
	Locking bool

	// --- Extensions (the paper's Section 6 future-work directions) ---

	// PhasedRW, when non-empty, divides the run into equal phases cycling
	// through these read/write ratios — modeling Section 3.3's observation
	// that one application's phases vary from 0.52 to 170. It overrides
	// ReadWriteRatio after the first phase.
	PhasedRW []float64

	// AdaptiveClustering enables the run-time policy selection the paper's
	// conclusions recommend: the engine watches the recent read/write mix
	// and switches the clusterer between a small I/O limit (low ratios,
	// where writer overhead cannot be amortized) and no limit (high ratios).
	AdaptiveClustering bool

	// --- Hostile traffic shapes ---

	// FlashFactor, when > 1, enables a flash crowd: while the issued
	// transaction count is in [FlashAt, FlashAt+FlashLen), every user's mean
	// think time is divided by FlashFactor — the whole population converges
	// on the system at once (think-time collapse). Zero (or <= 1) disables
	// the flash; runs without one are byte-identical to the pre-flash
	// engine. The OCB-side hostile shapes (multi-tenant zipf skew, working-
	// set drift) live in ocb.Params; this is the engine-side one.
	FlashFactor float64
	// FlashAt is the issued-transaction index at which the flash crowd
	// begins (meaningful only when FlashFactor > 1).
	FlashAt int
	// FlashLen is the flash crowd's duration in issued transactions
	// (required positive when FlashFactor > 1).
	FlashLen int

	// --- Ablation knobs (DESIGN.md design-choice studies) ---

	// ContextBoostLimit bounds the related pages the context-sensitive
	// policy boosts per access; 0 means the core default
	// (core.ContextNeighborLimit), negative disables boosting.
	ContextBoostLimit int

	// NoSiblingCandidates removes the sibling-page tier from the clustering
	// candidate ranking.
	NoSiblingCandidates bool

	// Record, when non-nil, receives the engine's logical transaction
	// stream in the compact binary trace format (internal/trace). A recorded
	// trace replays the byte-identical access sequence against any policy
	// wiring via Replay. Recording taps the generator output before any
	// component reacts to it, so a recorded run is byte-identical to an
	// unrecorded one.
	Record io.Writer

	// Replay, when non-nil, drives the run from a previously recorded
	// transaction trace instead of the workload generator. The trace must
	// hold at least Transactions+Warmup records. Replay and Record are
	// mutually exclusive.
	Replay io.Reader

	// --- Durability (file-backed storage) ---

	// Backend selects the storage backend from the name registry: "" or
	// "memory" for the in-memory manager (the default; byte-identical to
	// the pre-durability engine), "file" for the WAL-backed file backend.
	Backend string
	// DataDir is the data directory for the file backend, which holds its
	// WAL. Required when Backend is "file"; must be empty otherwise.
	DataDir string
	// Fsync names the WAL sync policy for the file backend: "" or
	// "always", "interval", "never". Must be empty for in-memory wiring.
	Fsync string

	// --- Layer seams ---

	// ClusterStrategy, when non-empty, selects the clustering strategy from
	// the name registry (e.g. "noop"); empty means "affinity", the paper's
	// algorithm.
	ClusterStrategy string
}

// paperDBBytes and paperBuffers are the unscaled Table 4.1 values.
const (
	paperDBBytes = 500 << 20
	paperBuffers = 1000
)

// Simulation mechanics no experiment, tier or workload varies.
const (
	// diskServiceTime is the per-physical-I/O disk service time (25 ms — a
	// late-1980s disk).
	diskServiceTime = 0.025
	// cpuPerLogicalOp is CPU service per logical operation (1 ms).
	cpuPerLogicalOp = 0.001
	// cpuPerPhysIO is CPU path length per physical I/O (0.3 ms).
	cpuPerPhysIO = 0.0003
	// logBufBytes is the circular log buffer capacity (64 KB).
	logBufBytes = 64 << 10
	// adaptiveThreshold is the observed read/write ratio at or above which
	// adaptive clustering switches to the unlimited candidate search (the
	// paper's Figure 5.7 crossover).
	adaptiveThreshold = 10
	// adaptiveWindow is the sliding window, in transactions, over which
	// adaptive clustering observes the read/write mix.
	adaptiveWindow = 200
)

// userHint is the relationship user hints advertise when Hints is
// UserHints; design tools overwhelmingly hint configuration access.
var userHint = core.Hint{Kind: model.ConfigDown, Active: true}

// DefaultConfig returns the paper's parameter set scaled by scale: database
// bytes and buffer frames shrink together, preserving the 0.76%
// buffer-to-database ratio that sets the paper's hit-ratio regime.
// scale 1.0 is the full 500 MB / 1000-frame configuration.
func DefaultConfig(scale float64) Config {
	if scale <= 0 {
		scale = 1
	}
	buffers := int(float64(paperBuffers) * scale)
	if buffers < 8 {
		buffers = 8
	}
	dbBytes := int(float64(paperDBBytes) * scale)
	if dbBytes < 64<<10 {
		dbBytes = 64 << 10
	}
	return Config{
		DBBytes:        dbBytes,
		PageSize:       4096,
		Users:          10,
		Disks:          10,
		ThinkTime:      4.0,
		Density:        workload.MedDensity,
		ReadWriteRatio: 10,
		Cluster:        core.PolicyNoLimit,
		Split:          core.LinearSplit,
		Hints:          core.NoHints,
		Replacement:    core.ReplLRU,
		Buffers:        buffers,
		Prefetch:       core.NoPrefetch,
		Seed:           1,
		Transactions:   4000,
		Locking:        true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.DBBytes <= 0:
		return fmt.Errorf("engine: DBBytes must be positive")
	case c.PageSize <= 0:
		return fmt.Errorf("engine: PageSize must be positive")
	case c.Users <= 0:
		return fmt.Errorf("engine: Users must be positive")
	case c.Disks <= 0:
		return fmt.Errorf("engine: Disks must be positive")
	case c.Buffers <= 0:
		return fmt.Errorf("engine: Buffers must be positive")
	case c.Transactions <= 0:
		return fmt.Errorf("engine: Transactions must be positive")
	case !(c.ReadWriteRatio > 0): // NaN compares false both ways
		return fmt.Errorf("engine: ReadWriteRatio must be positive, not %v", c.ReadWriteRatio)
	case !(c.ThinkTime >= 0) || math.IsInf(c.ThinkTime, 1):
		return fmt.Errorf("engine: ThinkTime must be non-negative and finite, not %v", c.ThinkTime)
	case c.Density > workload.HighDensity:
		return fmt.Errorf("engine: Density %d is out of range", c.Density)
	case c.Cluster.Mode > core.ClusterNoLimit || c.Cluster.IOLimit < 0:
		return fmt.Errorf("engine: Cluster {Mode %d, IOLimit %d} is out of range", c.Cluster.Mode, c.Cluster.IOLimit)
	case c.Split > core.NPSplit:
		return fmt.Errorf("engine: Split %d is out of range", c.Split)
	case c.Hints > core.UserHints:
		return fmt.Errorf("engine: Hints %d is out of range", c.Hints)
	case c.Prefetch > core.PrefetchWithinDB:
		return fmt.Errorf("engine: Prefetch %d is out of range", c.Prefetch)
	case !buffer.HasPolicy(c.Replacement.String()):
		return fmt.Errorf("engine: Replacement %q is not a registered policy (have %v)",
			c.Replacement, buffer.PolicyNames())
	case c.ClusterStrategy != "" && !core.HasClusterStrategy(c.ClusterStrategy):
		return fmt.Errorf("engine: unknown cluster strategy %q (have %v)",
			c.ClusterStrategy, core.ClusterStrategyNames())
	case c.Record != nil && c.Replay != nil:
		return fmt.Errorf("engine: Record and Replay are mutually exclusive")
	case !(c.FlashFactor >= 0) || math.IsInf(c.FlashFactor, 1):
		// A NaN factor compares false both ways and would run with no flash.
		return fmt.Errorf("engine: FlashFactor must be non-negative and finite, not %v", c.FlashFactor)
	case c.FlashFactor > 1 && c.FlashLen <= 0:
		return fmt.Errorf("engine: FlashFactor > 1 requires a positive FlashLen")
	case c.FlashFactor > 1 && c.FlashAt < 0:
		return fmt.Errorf("engine: FlashAt must be non-negative")
	case c.FlashFactor <= 1 && (c.FlashAt != 0 || c.FlashLen != 0):
		return fmt.Errorf("engine: FlashAt/FlashLen are only meaningful with FlashFactor > 1")
	}
	for i, rw := range c.PhasedRW {
		// The engine skips a phase whose ratio is not positive, silently
		// keeping the previous phase's mix.
		if !(rw > 0) {
			return fmt.Errorf("engine: PhasedRW[%d] must be positive, not %v", i, rw)
		}
	}
	switch c.Workload {
	case "", WorkloadOCT:
	case WorkloadOCB:
		if err := c.OCB.WithDefaults().Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("engine: unknown workload %q (want %q or %q)",
			c.Workload, WorkloadOCT, WorkloadOCB)
	}
	if !storage.HasBackend(c.Backend) {
		return fmt.Errorf("engine: unknown storage backend %q (have %v)",
			c.Backend, storage.BackendNames())
	}
	if _, err := storage.ParseFsync(c.Fsync); err != nil {
		return err
	}
	persistent := !storage.IsMemoryBackend(c.Backend)
	switch {
	case persistent && c.DataDir == "":
		return fmt.Errorf("engine: backend %q requires DataDir", c.Backend)
	case !persistent && c.DataDir != "":
		return fmt.Errorf("engine: DataDir is only meaningful with a persistent backend")
	case !persistent && c.Fsync != "":
		return fmt.Errorf("engine: Fsync is only meaningful with a persistent backend")
	}
	return nil
}

// phase is when a Config field first changes what a run computes. A field
// of one phase never changes what an earlier phase produced, so two
// configurations that agree on every field up to a phase share that phase's
// product.
type phase uint8

const (
	// phaseGeneration fields shape the logical database the workload
	// family generates.
	phaseGeneration phase = iota + 1
	// phaseConstruction fields shape the physical database built from it:
	// placement and the pool the construction order runs through.
	phaseConstruction
	// phaseRun fields act only once the measured run starts.
	phaseRun
	// phaseOutput fields change where results or state go, not what the
	// simulation computes: trace sinks and sources, and the storage backend,
	// whose logical digest is asserted equal to the memory backend's.
	phaseOutput
)

// configPhases names the phase of every Config field. TestConfigPhases
// fails on a field it does not name, so a new field must be placed here.
var configPhases = map[string]phase{
	"DBBytes":  phaseGeneration,
	"PageSize": phaseGeneration,
	"Density":  phaseGeneration,
	"Workload": phaseGeneration,
	"OCB":      phaseGeneration, // its operation mix too: OCB counts as a whole
	"Seed":     phaseGeneration,

	"Cluster":             phaseConstruction,
	"Split":               phaseConstruction,
	"Hints":               phaseConstruction,
	"Replacement":         phaseConstruction,
	"Buffers":             phaseConstruction,
	"NoSiblingCandidates": phaseConstruction,
	"ClusterStrategy":     phaseConstruction,

	"Users":              phaseRun,
	"Disks":              phaseRun,
	"ThinkTime":          phaseRun,
	"ReadWriteRatio":     phaseRun,
	"Prefetch":           phaseRun,
	"Transactions":       phaseRun,
	"Warmup":             phaseRun,
	"Locking":            phaseRun,
	"PhasedRW":           phaseRun,
	"AdaptiveClustering": phaseRun,
	"FlashFactor":        phaseRun,
	"FlashAt":            phaseRun,
	"FlashLen":           phaseRun,
	"ContextBoostLimit":  phaseRun,

	"Record":  phaseOutput,
	"Replay":  phaseOutput,
	"Backend": phaseOutput,
	"DataDir": phaseOutput,
	"Fsync":   phaseOutput,
}

// through renders c with every field of a phase after last zeroed.
func (c Config) through(last phase) string {
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		if configPhases[v.Type().Field(i).Name] > last {
			v.Field(i).SetZero()
		}
	}
	return fmt.Sprintf("%+v", c)
}

// Fingerprint renders the behavior-determining configuration — every field
// but the output-only ones — as a stable string: the key of the experiment
// harness's memo and results caches.
func (c Config) Fingerprint() string { return c.through(phaseRun) }

// constructionKey renders the fields up to construction: configurations
// with equal keys build identical worlds. A persistent backend's world
// lives in its data directory, so there the storage fields count too.
func (c Config) constructionKey() string {
	k := c.through(phaseConstruction)
	if !storage.IsMemoryBackend(c.Backend) {
		k += fmt.Sprintf(" in %q at %q, fsync %q", c.Backend, c.DataDir, c.Fsync)
	}
	return k
}

// WorldKey identifies the world a configuration constructs. Configurations
// with equal keys build identical worlds, so any of them may run on a clone
// of another's (see Template).
type WorldKey struct{ key string }

// WorldKey returns c's world key.
func (c Config) WorldKey() WorldKey { return WorldKey{c.constructionKey()} }

// Label summarizes the control parameters for report rows.
func (c Config) Label() string {
	head := fmt.Sprintf("%s-%g", c.Density.Short(), c.ReadWriteRatio)
	if c.Workload == WorkloadOCB {
		head = c.OCB.Label()
	}
	label := fmt.Sprintf("%s %s/%s/%s %s+%s buf=%d",
		head, c.Cluster, c.Split, c.Hints, c.Replacement, c.Prefetch, c.Buffers)
	if c.ClusterStrategy != "" {
		label += " strat=" + c.ClusterStrategy
	}
	return label
}
