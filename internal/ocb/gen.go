package ocb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// Base is a generated OCB object base. Like the OCT database, no physical
// placement happens at generation time: the engine replays Order through
// the clustering policy under test, so every policy's physical database
// reflects what that policy would have built.
type Base struct {
	Graph *model.Graph
	Store *storage.Manager

	// Classes are the leaf classes of the generated lattice; instances are
	// distributed over them round-robin.
	Classes []model.TypeID
	// Extents holds, per leaf class, its instances (including derived
	// versions) in creation order — the target sets of set-oriented scans.
	Extents [][]model.ObjectID
	// Order is the full creation order (parents and reference targets
	// always precede referrers) — the database-construction sequence.
	Order []model.ObjectID
	// Versioned lists objects carrying an inheritance link (InheritsFrom),
	// the roots hierarchy traversals start from.
	Versioned []model.ObjectID
	// Bytes is the total object volume generated.
	Bytes int
}

// buildClasses defines the class lattice: a tree of depth p.HierarchyDepth
// and fanout p.HierarchyFanout under one abstract root class. Leaf classes
// get distinct base sizes so extents differ in physical footprint, and a
// traversal-frequency profile the clustering algorithm can consume.
func buildClasses(g *model.Graph, p Params) ([]model.TypeID, error) {
	freq := model.FreqProfile{}
	freq[model.ConfigDown] = 0.45
	freq[model.ConfigUp] = 0.15
	freq[model.VersionAncestor] = 0.10
	freq[model.InheritanceRef] = 0.20
	freq[model.Correspondence] = 0.10

	root, err := g.DefineType("ocb-object", model.NilType, 0, model.FreqProfile{},
		[]model.AttrDef{{Name: "ocb-props", Size: 24, AccessFreq: 0.6}})
	if err != nil {
		return nil, err
	}
	level := []model.TypeID{root}
	var leaves []model.TypeID
	seq := 0
	for d := 1; d <= p.HierarchyDepth; d++ {
		var next []model.TypeID
		for _, super := range level {
			for f := 0; f < p.HierarchyFanout; f++ {
				seq++
				// Vary leaf base sizes across a 0.5x..1.5x band.
				size := p.BaseSize/2 + (seq%4)*(p.BaseSize/3)
				id, err := g.DefineType(fmt.Sprintf("ocb-c%d", seq), super, size, freq, nil)
				if err != nil {
					return nil, err
				}
				next = append(next, id)
				if d == p.HierarchyDepth {
					leaves = append(leaves, id)
				}
			}
		}
		level = next
	}
	return leaves, nil
}

// zipfOffset draws a hot/cold offset in [0, n): offset 0 is the hottest
// element. The draw is a discrete Pareto tail with P(X > x) ~ x^-(s-1),
// folded into range by modulo so exactly one uniform variate is consumed
// per draw (the fixed draw count keeps record/replay byte-identical).
func zipfOffset(rng *rand.Rand, s float64, n int) int {
	if n <= 1 {
		return 0
	}
	v := math.Pow(rng.Float64(), -1.0/(s-1.0)) - 1.0
	if v >= float64(n) || math.IsInf(v, 1) || math.IsNaN(v) {
		return int(math.Mod(v, float64(n))+float64(n)) % n
	}
	return int(v)
}

// drawRefTarget draws the creation index of a reference target among the
// first n objects, according to dist. Hot/cold skew favors recent objects;
// the locality window keeps targets near the referrer.
func drawRefTarget(rng *rand.Rand, p Params, n int) int {
	switch p.RefDist {
	case DistZipf:
		return n - 1 - zipfOffset(rng, p.ZipfS, n)
	case DistClustered:
		w := p.LocalityWindow
		if w > n {
			w = n
		}
		return n - 1 - rng.Intn(w)
	default:
		return rng.Intn(n)
	}
}

// Generate builds an OCB object base of roughly targetBytes object volume.
// The same (params, targetBytes, pageSize, seed) tuple yields a
// byte-identical base: generation draws from its own seeded stream and the
// graph is built in one deterministic pass.
func Generate(p Params, targetBytes, pageSize int, seed int64) (*Base, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if targetBytes <= 0 {
		return nil, fmt.Errorf("ocb: targetBytes must be positive")
	}
	g := model.NewGraph()
	st := storage.NewManager(g, pageSize)
	classes, err := buildClasses(g, p)
	if err != nil {
		return nil, err
	}
	base := &Base{
		Graph:   g,
		Store:   st,
		Classes: classes,
		Extents: make([][]model.ObjectID, len(classes)),
	}
	rng := rand.New(rand.NewSource(seed))

	add := func(o *model.Object, class int) {
		if p.SizeSpread > 0 {
			o.Size += int32(rng.Intn(2*p.SizeSpread) - p.SizeSpread)
			if o.Size < 32 {
				o.Size = 32
			}
		}
		base.Bytes += int(o.Size)
		base.Order = append(base.Order, o.ID)
		base.Extents[class] = append(base.Extents[class], o.ID)
	}
	// attachRefs links o to nrefs distinct earlier objects. References
	// always point backwards in creation order, so the configuration graph
	// (Components edges) is a DAG and, because every object past the first
	// holds at least one reference, weakly connected.
	attachRefs := func(o *model.Object, nrefs int) error {
		n := len(base.Order) - 1 // objects created before o
		if nrefs > n {
			nrefs = n
		}
		for k := 0; k < nrefs; k++ {
			for try := 0; try < 8; try++ {
				j := drawRefTarget(rng, p, n)
				err := g.Attach(o.ID, base.Order[j])
				if err == nil {
					break
				}
				if !errors.Is(err, model.ErrDuplicateLink) {
					return err
				}
			}
		}
		return nil
	}

	idx := 0
	for base.Bytes < targetBytes {
		class := idx % len(classes)
		o, err := g.NewObject("", 1, classes[class])
		if err != nil {
			return nil, err
		}
		add(o, class)
		if err := attachRefs(o, p.RefsPerObject); err != nil {
			return nil, err
		}
		// Version chains provide the inheritance links (InheritsFrom)
		// hierarchy traversals walk.
		if p.VersionChainMax > 1 && rng.Float64() < p.VersionFraction {
			cur := o
			chain := 1 + rng.Intn(p.VersionChainMax)
			for v := 1; v < chain; v++ {
				nv, err := g.Derive(cur.ID)
				if err != nil {
					return nil, err
				}
				add(nv, class)
				base.Versioned = append(base.Versioned, nv.ID)
				// One fresh reference per version keeps stochastic walks
				// from dead-ending on bare derived objects.
				if err := attachRefs(nv, 1); err != nil {
					return nil, err
				}
				cur = nv
			}
		}
		idx++
	}
	if len(base.Order) == 0 {
		return nil, fmt.Errorf("ocb: generated empty object base")
	}
	return base, nil
}
