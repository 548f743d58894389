// Package ocb implements an OCB-style synthetic workload family (after
// Darmont et al.'s generic object-oriented benchmark): a parameterized
// object-base generator — class-hierarchy depth/fanout, reference
// distributions (uniform, Zipfian hot/cold, locality-clustered) — and an
// operation generator producing the four OCB read kinds (set-oriented
// scan, simple traversal, hierarchy traversal along inheritance links,
// stochastic traversal along configuration links) plus, when
// Params.ReadWriteRatio enables them, the four full-OCB evolution kinds
// (object insert, subtree delete, attribute update, reference rewiring).
//
// The generator plugs into the engine behind the workload.Source seam, so
// OCB runs record/replay exactly like the paper's OCT workload. With the
// default read-only mix, a recorded OCB stream replayed under two
// different policy wirings must produce identical logical
// results; with writes enabled the same property holds for synchronous
// (lock-free) execution, because every draw — including write targets and
// payload-size classes — is resolved at generation time. The differential
// oracle (internal/oracle) turns both into executable checks, adding
// per-write conservation invariants and a final-state digest for the
// write-enabled case.
package ocb

import "fmt"

// RefDist selects how object references (and run-time traversal roots) are
// distributed over the object base.
type RefDist uint8

const (
	// DistUniform draws references uniformly over all earlier objects.
	DistUniform RefDist = iota
	// DistZipf draws references with a Zipfian hot/cold skew: recently
	// created objects are hot, old ones form a long cold tail.
	DistZipf
	// DistClustered draws references from a sliding locality window, so
	// structurally close objects are also close in creation order.
	DistClustered

	numRefDists
)

// RefDists lists the distributions in experiment order.
var RefDists = []RefDist{DistUniform, DistZipf, DistClustered}

// String names the distribution.
func (d RefDist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistZipf:
		return "zipf"
	case DistClustered:
		return "clustered"
	}
	return fmt.Sprintf("RefDist(%d)", uint8(d))
}

// ParseRefDist resolves a distribution name.
func ParseRefDist(s string) (RefDist, error) {
	for _, d := range RefDists {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("ocb: unknown reference distribution %q (want uniform, zipf, or clustered)", s)
}

// Params parameterizes the OCB object base and operation mix. The zero
// value means "use the defaults" — WithDefaults fills every unset field, so
// a Config can embed a zero Params and still be valid.
type Params struct {
	// --- Class hierarchy ---

	// HierarchyDepth is the depth of the class lattice below the abstract
	// root class (default 3).
	HierarchyDepth int
	// HierarchyFanout is the number of subclasses under each non-leaf
	// class (default 2). Instances are drawn from the leaf classes.
	HierarchyFanout int

	// --- Object base ---

	// BaseSize is the mean object size in bytes before jitter (default 200).
	BaseSize int
	// SizeSpread is the +/- uniform jitter applied to object sizes
	// (default 80).
	SizeSpread int
	// RefsPerObject is the number of configuration references each object
	// holds to earlier-created objects (default 3). References always point
	// backwards in creation order, so the configuration graph is acyclic by
	// construction.
	RefsPerObject int
	// RefDist selects the reference distribution.
	RefDist RefDist
	// ZipfS is the Zipf skew exponent for DistZipf (> 1; default 2).
	ZipfS float64
	// LocalityWindow is the creation-order window for DistClustered
	// (default 64).
	LocalityWindow int
	// VersionChainMax bounds derive-chain lengths (default 3); chains are
	// the inheritance links hierarchy traversals walk.
	VersionChainMax int
	// VersionFraction is the probability an object roots a version chain
	// (default 0.15).
	VersionFraction float64

	// --- Operations ---

	// Depth bounds traversal depth for simple and stochastic traversals
	// (1..8, default 3).
	Depth int
	// ScanSample is the number of extent objects one set-oriented scan
	// touches (default 30).
	ScanSample int
	// WeightScan..WeightStochastic set the operation mix (defaults
	// 1/4/2/3).
	WeightScan, WeightSimple, WeightHierarchy, WeightStochastic int
	// SessionMin and SessionMax bound the transactions per user session
	// (defaults 5 and 20, matching the OCT workload's session model).
	SessionMin, SessionMax int

	// --- Writes (full-OCB evolution operations) ---

	// ReadWriteRatio is reads per write. Zero (the default) keeps the
	// classic read-only OCB mix; any positive value enables the four write
	// kinds with write probability 1/(1+ReadWriteRatio). The read-only
	// default is deliberately not filled in by WithDefaults: a zero here is
	// a meaningful configuration, and read-only streams must keep their
	// byte-identical digest contract.
	ReadWriteRatio float64
	// WeightInsert..WeightRewire set the write-operation mix (defaults
	// 3/1/4/2). Only consulted when a write is drawn, so they cost no
	// randomness on read-only runs.
	WeightInsert, WeightDelete, WeightUpdate, WeightRewire int

	// --- Hostile traffic shapes ---

	// Tenants partitions the object base into that many contiguous
	// creation-order slices; each session is pinned to one tenant drawn
	// with Zipfian skew, so a few tenants dominate the traffic
	// (default 1 = no partitioning, and no extra randomness is consumed).
	Tenants int
	// TenantSkew is the Zipf exponent of the tenant draw (> 1; default 2).
	TenantSkew float64
	// DriftPeriod, for DistClustered, replaces the random 1/16 locus
	// relocation with a deterministic working-set sweep: every DriftPeriod
	// operations the locality locus advances half a window, forcing the
	// hot set to migrate across the base (and the clusterer to chase it).
	// Zero (the default) keeps the random relocation.
	DriftPeriod int
}

// DefaultParams returns the fully defaulted parameter set.
func DefaultParams() Params { return Params{}.WithDefaults() }

// WithDefaults fills every unset field with its default. RefsPerObject,
// Depth, ScanSample, Tenants, TenantSkew and DriftPeriod are unset only at
// zero: a negative value (or a skew at most 1) is left for Validate to
// refuse, not replaced.
func (p Params) WithDefaults() Params {
	if p.HierarchyDepth <= 0 {
		p.HierarchyDepth = 3
	}
	if p.HierarchyFanout <= 0 {
		p.HierarchyFanout = 2
	}
	if p.BaseSize <= 0 {
		p.BaseSize = 200
	}
	if p.SizeSpread < 0 {
		p.SizeSpread = 0
	} else if p.SizeSpread == 0 {
		p.SizeSpread = 80
	}
	if p.RefsPerObject == 0 {
		p.RefsPerObject = 3
	}
	if p.ZipfS <= 1 {
		p.ZipfS = 2
	}
	if p.LocalityWindow <= 0 {
		p.LocalityWindow = 64
	}
	if p.VersionChainMax <= 0 {
		p.VersionChainMax = 3
	}
	if p.VersionFraction <= 0 {
		p.VersionFraction = 0.15
	}
	if p.Depth == 0 {
		p.Depth = 3
	}
	if p.ScanSample == 0 {
		p.ScanSample = 30
	}
	if p.WeightScan+p.WeightSimple+p.WeightHierarchy+p.WeightStochastic <= 0 {
		p.WeightScan, p.WeightSimple, p.WeightHierarchy, p.WeightStochastic = 1, 4, 2, 3
	}
	if p.SessionMin <= 0 {
		p.SessionMin = 5
	}
	if p.SessionMax < p.SessionMin {
		p.SessionMax = 20
		if p.SessionMax < p.SessionMin {
			p.SessionMax = p.SessionMin
		}
	}
	if p.WeightInsert+p.WeightDelete+p.WeightUpdate+p.WeightRewire <= 0 {
		p.WeightInsert, p.WeightDelete, p.WeightUpdate, p.WeightRewire = 3, 1, 4, 2
	}
	if p.Tenants == 0 {
		p.Tenants = 1
	}
	if p.TenantSkew == 0 {
		p.TenantSkew = 2
	}
	return p
}

// Validate reports parameter errors. Call it on a defaulted copy.
func (p Params) Validate() error {
	switch {
	case p.HierarchyDepth < 1 || p.HierarchyDepth > 6:
		return fmt.Errorf("ocb: HierarchyDepth %d out of range [1,6]", p.HierarchyDepth)
	case p.HierarchyFanout < 1 || p.HierarchyFanout > 8:
		return fmt.Errorf("ocb: HierarchyFanout %d out of range [1,8]", p.HierarchyFanout)
	case p.BaseSize < 32:
		return fmt.Errorf("ocb: BaseSize %d below minimum 32", p.BaseSize)
	case p.RefsPerObject < 1 || p.RefsPerObject > 16:
		return fmt.Errorf("ocb: RefsPerObject %d out of range [1,16]", p.RefsPerObject)
	case p.RefDist >= numRefDists:
		return fmt.Errorf("ocb: unknown RefDist %d", p.RefDist)
	case p.ZipfS <= 1:
		return fmt.Errorf("ocb: ZipfS %g must exceed 1", p.ZipfS)
	case p.Depth < 1 || p.Depth > 8:
		return fmt.Errorf("ocb: Depth %d out of range [1,8]", p.Depth)
	case p.ScanSample < 1:
		return fmt.Errorf("ocb: ScanSample %d must be positive", p.ScanSample)
	case p.WeightScan < 0 || p.WeightSimple < 0 || p.WeightHierarchy < 0 || p.WeightStochastic < 0:
		return fmt.Errorf("ocb: operation weights must be non-negative")
	case p.WeightScan+p.WeightSimple+p.WeightHierarchy+p.WeightStochastic == 0:
		return fmt.Errorf("ocb: at least one operation weight must be positive")
	case p.SessionMin < 1 || p.SessionMax < p.SessionMin:
		return fmt.Errorf("ocb: session bounds [%d,%d] invalid", p.SessionMin, p.SessionMax)
	case p.ReadWriteRatio < 0:
		return fmt.Errorf("ocb: ReadWriteRatio %g must be non-negative", p.ReadWriteRatio)
	case p.WeightInsert < 0 || p.WeightDelete < 0 || p.WeightUpdate < 0 || p.WeightRewire < 0:
		return fmt.Errorf("ocb: write-operation weights must be non-negative")
	case p.ReadWriteRatio > 0 && p.WeightInsert+p.WeightDelete+p.WeightUpdate+p.WeightRewire == 0:
		return fmt.Errorf("ocb: writes enabled but every write-operation weight is zero")
	case p.Tenants < 1 || p.Tenants > 1024:
		return fmt.Errorf("ocb: Tenants %d out of range [1,1024]", p.Tenants)
	case p.TenantSkew <= 1:
		return fmt.Errorf("ocb: TenantSkew %g must exceed 1", p.TenantSkew)
	case p.DriftPeriod < 0:
		return fmt.Errorf("ocb: DriftPeriod %d must be non-negative", p.DriftPeriod)
	}
	return nil
}

// Label renders the distribution-bearing label used in experiment rows.
func (p Params) Label() string {
	d := p.WithDefaults()
	l := fmt.Sprintf("ocb-%s-r%d-d%d", d.RefDist, d.RefsPerObject, d.Depth)
	if d.ReadWriteRatio > 0 {
		l += fmt.Sprintf("-rw%g", d.ReadWriteRatio)
	}
	if d.Tenants > 1 {
		l += fmt.Sprintf("-t%d", d.Tenants)
	}
	if d.DriftPeriod > 0 {
		l += fmt.Sprintf("-drift%d", d.DriftPeriod)
	}
	return l
}
