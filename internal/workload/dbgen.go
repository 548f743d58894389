package workload

import (
	"math/rand"
	"strconv"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// DBSpec sizes and shapes the synthetic engineering database. The shape
// mirrors the OCT world of Section 3: design families with several
// representation types (layout/netlist/transistor), two-level configuration
// hierarchies (cells containing blocks containing nets/terminals/paths),
// version chains on the design roots, and correspondences between
// representations of the same design.
type DBSpec struct {
	// TargetBytes is the approximate total object volume to generate
	// (500 MB in the paper; experiments scale it down).
	TargetBytes int
	// Density drives configuration fan-outs.
	Density DensityClass
	// RepTypes is the number of representation types per design family.
	RepTypes int
	// VersionChainMax bounds the version-chain length of design roots.
	VersionChainMax int
	// SizeSpread is the +/- uniform jitter applied to object base sizes.
	SizeSpread int
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultDBSpec returns the experiment defaults for a density class and
// database volume.
func DefaultDBSpec(density DensityClass, targetBytes int) DBSpec {
	return DBSpec{
		TargetBytes:     targetBytes,
		Density:         density,
		RepTypes:        3,
		VersionChainMax: 3,
		SizeSpread:      80,
		Seed:            1,
	}
}

// Schema holds the generated type lattice.
type Schema struct {
	// DesignObject is the abstract supertype all representations inherit
	// from; it defines the attributes shared across the lattice.
	DesignObject model.TypeID
	// RootTypes are the representation types of design roots (layout,
	// netlist, transistor, ...).
	RootTypes []model.TypeID
	// BlockType is the mid-level composite type.
	BlockType model.TypeID
	// LeafTypes are the primitive component types (net, terminal, path).
	LeafTypes []model.TypeID
}

// Database is a generated object base with the index slices the transaction
// generator draws targets from.
type Database struct {
	Graph  *model.Graph
	Store  *storage.Manager
	Schema Schema

	// Roots are current design-root versions (composite, versioned,
	// corresponded objects).
	Roots []model.ObjectID
	// Blocks are mid-level composites.
	Blocks []model.ObjectID
	// Leaves are primitive components.
	Leaves []model.ObjectID

	// Families holds, per design family, the object creation sequence
	// (parents precede children). The engine replays these — interleaved
	// across families, the way months of real design work interleave — to
	// construct the physical database through the clustering policy under
	// test, so every policy's database reflects what that policy would have
	// built (Section 4.1's "sample database used by all the buffering and
	// clustering algorithms").
	Families [][]model.ObjectID

	// Bytes is the total object volume generated.
	Bytes int
}

var repTypeNames = []string{"layout", "netlist", "transistor", "symbolic", "schematic"}
var leafTypeNames = []string{"net", "terminal", "path"}

// buildSchema defines the type lattice with the traversal-frequency
// profiles and inherited attributes the clustering algorithm consumes.
func buildSchema(g *model.Graph) (Schema, error) {
	var s Schema
	var err error
	// Abstract supertype: carries attributes every representation inherits.
	// "revision-history" is large and rarely touched — the copy-vs-reference
	// cost model should implement it by reference; "props" is small and hot —
	// it should stay by copy.
	s.DesignObject, err = g.DefineType("design-object", model.NilType, 0,
		model.FreqProfile{}, []model.AttrDef{
			{Name: "props", Size: 32, AccessFreq: 0.8},
		})
	if err != nil {
		return s, err
	}
	rootFreq := model.FreqProfile{}
	rootFreq[model.ConfigDown] = 0.55
	rootFreq[model.Correspondence] = 0.18
	rootFreq[model.VersionAncestor] = 0.12
	rootFreq[model.VersionDescendant] = 0.05
	rootFreq[model.InheritanceRef] = 0.10
	for i := 0; i < len(repTypeNames); i++ {
		id, err := g.DefineType(repTypeNames[i], s.DesignObject, 240, rootFreq,
			[]model.AttrDef{
				{Name: "geometry", Size: 96, AccessFreq: 0.4},
				{Name: "revision-history", Size: 512, AccessFreq: 0.05},
			})
		if err != nil {
			return s, err
		}
		s.RootTypes = append(s.RootTypes, id)
	}
	blockFreq := model.FreqProfile{}
	blockFreq[model.ConfigDown] = 0.45
	blockFreq[model.ConfigUp] = 0.30
	blockFreq[model.Correspondence] = 0.05
	blockFreq[model.VersionAncestor] = 0.05
	blockFreq[model.InheritanceRef] = 0.15
	var err2 error
	s.BlockType, err2 = g.DefineType("block", s.DesignObject, 180, blockFreq, nil)
	if err2 != nil {
		return s, err2
	}
	leafFreq := model.FreqProfile{}
	leafFreq[model.ConfigUp] = 0.60
	leafFreq[model.Correspondence] = 0.10
	leafFreq[model.InheritanceRef] = 0.05
	for _, n := range leafTypeNames {
		id, err := g.DefineType(n, s.DesignObject, 100, leafFreq, nil)
		if err != nil {
			return s, err
		}
		s.LeafTypes = append(s.LeafTypes, id)
	}
	return s, nil
}

// Generate builds the object graph — no physical placement happens here;
// the engine replays the creation sequences through the clustering policy
// under test. The same seed yields the same graph, so every policy under
// comparison sees an identical logical database.
func Generate(spec DBSpec, pageSize int) (*Database, error) {
	g := model.NewGraph()
	st := storage.NewManager(g, pageSize)
	schema, err := buildSchema(g)
	if err != nil {
		return nil, err
	}
	db := &Database{Graph: g, Store: st, Schema: schema}
	rng := rand.New(rand.NewSource(spec.Seed))

	var seq []model.ObjectID
	jitter := func(o *model.Object) {
		if spec.SizeSpread > 0 {
			o.Size += rng.Intn(2*spec.SizeSpread) - spec.SizeSpread
			if o.Size < 32 {
				o.Size = 32
			}
		}
		db.Bytes += o.Size
		seq = append(seq, o.ID)
	}

	// Names are built in one reused buffer ("D7", "D7.b2", "D7.b2.l5"):
	// fmt.Sprintf per object was a measurable share of construction.
	var nameBuf []byte
	childName := func(prefix, sep string, i int) string {
		nameBuf = append(append(nameBuf[:0], prefix...), sep...)
		nameBuf = strconv.AppendInt(nameBuf, int64(i), 10)
		return string(nameBuf)
	}

	family := 0
	for db.Bytes < spec.TargetBytes {
		family++
		seq = nil
		name := childName("D", "", family)
		reps := spec.RepTypes
		if reps < 1 {
			reps = 1
		}
		if reps > len(schema.RootTypes) {
			reps = len(schema.RootTypes)
		}
		var familyRoots []model.ObjectID
		for r := 0; r < reps; r++ {
			root, err := g.NewObject(name, 1, schema.RootTypes[r])
			if err != nil {
				return nil, err
			}
			jitter(root)
			// Two-level configuration: root -> blocks -> leaves.
			nblocks := spec.Density.FanOut(rng)
			for b := 0; b < nblocks; b++ {
				blkName := childName(name, ".b", b)
				blk, err := g.NewObject(blkName, 1, schema.BlockType)
				if err != nil {
					return nil, err
				}
				jitter(blk)
				if err := g.Attach(root.ID, blk.ID); err != nil {
					return nil, err
				}
				nleaves := spec.Density.FanOut(rng)
				for l := 0; l < nleaves; l++ {
					lt := schema.LeafTypes[rng.Intn(len(schema.LeafTypes))]
					leaf, err := g.NewObject(childName(blkName, ".l", l), 1, lt)
					if err != nil {
						return nil, err
					}
					jitter(leaf)
					if err := g.Attach(blk.ID, leaf.ID); err != nil {
						return nil, err
					}
					db.Leaves = append(db.Leaves, leaf.ID)
				}
				db.Blocks = append(db.Blocks, blk.ID)
			}
			// Version chain on the root; descendants share the ancestor's
			// components plus one fresh block, as checkins do.
			cur := root
			chain := 1 + rng.Intn(spec.VersionChainMax)
			for v := 1; v < chain; v++ {
				next, err := g.Derive(cur.ID)
				if err != nil {
					return nil, err
				}
				jitter(next)
				for _, c := range cur.Components {
					if rng.Float64() < 0.7 {
						if err := g.Attach(next.ID, c); err != nil {
							return nil, err
						}
					}
				}
				cur = next
			}
			familyRoots = append(familyRoots, cur.ID)
			db.Roots = append(db.Roots, cur.ID)
		}
		// Correspondences between the representations of the family.
		for i := 0; i < len(familyRoots); i++ {
			for j := i + 1; j < len(familyRoots); j++ {
				if err := g.Correspond(familyRoots[i], familyRoots[j]); err != nil {
					return nil, err
				}
			}
		}
		db.Families = append(db.Families, seq)
	}
	return db, nil
}

// ConstructionOrder interleaves the families' creation sequences into a
// single database-construction order: short bursts of work on randomly
// chosen designs, the way a shared CAD database accumulates over months.
// Parents still precede their children (each family's internal order is
// preserved), so the clustering algorithm always has the structural
// neighbors of a new object available as placement candidates.
func (db *Database) ConstructionOrder(rng *rand.Rand, burstMax int) []model.ObjectID {
	if burstMax < 1 {
		burstMax = 1
	}
	total := 0
	pos := make([]int, len(db.Families))
	live := make([]int, 0, len(db.Families))
	for i, f := range db.Families {
		total += len(f)
		if len(f) > 0 {
			live = append(live, i)
		}
	}
	out := make([]model.ObjectID, 0, total)
	for len(live) > 0 {
		li := rng.Intn(len(live))
		f := live[li]
		burst := 1 + rng.Intn(burstMax)
		for b := 0; b < burst && pos[f] < len(db.Families[f]); b++ {
			out = append(out, db.Families[f][pos[f]])
			pos[f]++
		}
		if pos[f] >= len(db.Families[f]) {
			live[li] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return out
}
