package workload

import (
	"math/rand"

	"oodb/internal/model"
)

// Op is one operation request — the shared representation every workload
// source emits and every execution layer consumes: a kind, a target set,
// and a payload-size class. In the paper's model every object read or
// write operation is a transaction (Section 4.1); OCB reads and the full
// OCB evolution operations ride in the same shape, with all randomness
// resolved at generation time so recorded streams replay byte-identically.
type Op struct {
	Kind QueryKind
	// Target is the primary object of the operation (the composite to
	// expand, the object to update, ...). NilObject only for inserts.
	Target model.ObjectID
	// AttachTo is the composite a QInsert attaches the new object to, the
	// composite a QStructUpdate re-links Target under, or the object a
	// QOCBRewire re-attaches Target's first reference to.
	AttachTo model.ObjectID
	// NewType is the type of the object a QInsert or QOCBInsert creates.
	NewType model.TypeID
	// Targets is the operation's resolved target set: the object list of a
	// QScan/QOCBScan sweep, the pre-resolved walk of a QOCBStochastic
	// traversal, or the reference targets of a QOCBInsert.
	Targets []model.ObjectID
	// Size is the payload-size class of a write (SizeUnspecified keeps the
	// schema-implied or current size).
	Size SizeClass
}

// scanLength is the number of unrelated objects one QScan touches.
const scanLength = 30

// Generator produces transactions against a Database according to Params.
// It tracks a hot set of recently written objects so reads exhibit the
// working-set locality of real design tools, and it learns about objects the
// engine creates during the run via NoteCreated.
type Generator struct {
	db  *Database
	p   Params
	rng *rand.Rand

	hot    []model.ObjectID
	hotPos int
}

// NewGenerator creates a generator drawing randomness from rng.
func NewGenerator(db *Database, p Params, rng *rand.Rand) *Generator {
	if p.SessionMin <= 0 {
		p.SessionMin = 5
	}
	if p.SessionMax < p.SessionMin {
		p.SessionMax = p.SessionMin
	}
	if p.HotSetSize <= 0 {
		p.HotSetSize = 256
	}
	return &Generator{db: db, p: p, rng: rng}
}

// Params returns the generator's parameters.
func (gen *Generator) Params() Params { return gen.p }

// SetReadWriteRatio changes the read/write ratio mid-run — Section 3.3
// observed that phases of one application (the MOSAICO phases span 0.52 to
// 170) vary wildly, and the adaptive-clustering extension needs a workload
// that actually does so. It reports whether the change took effect.
func (gen *Generator) SetReadWriteRatio(rw float64) bool {
	if rw > 0 {
		gen.p.ReadWriteRatio = rw
		return true
	}
	return false
}

// SessionLength draws the number of transactions in a user session
// (5 to 20 in the paper).
func (gen *Generator) SessionLength() int {
	return gen.p.SessionMin + gen.rng.Intn(gen.p.SessionMax-gen.p.SessionMin+1)
}

// NoteCreated records an object created during the run so later
// transactions can target it. kind routes it into the right target index.
func (gen *Generator) NoteCreated(id model.ObjectID, t model.TypeID) {
	switch {
	case t == gen.db.Schema.BlockType:
		gen.db.Blocks = append(gen.db.Blocks, id)
	case gen.isRootType(t):
		gen.db.Roots = append(gen.db.Roots, id)
	default:
		gen.db.Leaves = append(gen.db.Leaves, id)
	}
	gen.touch(id)
}

func (gen *Generator) isRootType(t model.TypeID) bool {
	for _, rt := range gen.db.Schema.RootTypes {
		if rt == t {
			return true
		}
	}
	return false
}

// touch adds an object to the hot ring.
func (gen *Generator) touch(id model.ObjectID) {
	if len(gen.hot) < gen.p.HotSetSize {
		gen.hot = append(gen.hot, id)
		return
	}
	gen.hot[gen.hotPos] = id
	gen.hotPos = (gen.hotPos + 1) % len(gen.hot)
}

func pick(r *rand.Rand, s []model.ObjectID) model.ObjectID {
	if len(s) == 0 {
		return model.NilObject
	}
	return s[r.Intn(len(s))]
}

// pickAlive draws from s, skipping objects that have been deleted (the
// index slices are append-only and may hold stale IDs).
func (gen *Generator) pickAlive(s []model.ObjectID) model.ObjectID {
	for try := 0; try < 8; try++ {
		id := pick(gen.rng, s)
		if id == model.NilObject {
			return model.NilObject
		}
		if gen.db.Graph.Object(id) != nil {
			return id
		}
	}
	return model.NilObject
}

// pickHot returns a hot object satisfying accept, or NilObject.
func (gen *Generator) pickHot(accept func(model.ObjectID) bool) model.ObjectID {
	if len(gen.hot) == 0 || gen.rng.Float64() >= gen.p.HotFraction {
		return model.NilObject
	}
	for try := 0; try < 4; try++ {
		id := gen.hot[gen.rng.Intn(len(gen.hot))]
		if gen.db.Graph.Object(id) == nil {
			continue
		}
		if accept == nil || accept(id) {
			return id
		}
	}
	return model.NilObject
}

func (gen *Generator) pickComposite() model.ObjectID {
	isComposite := func(id model.ObjectID) bool {
		o := gen.db.Graph.Object(id)
		return o != nil && len(o.Components()) > 0
	}
	if id := gen.pickHot(isComposite); id != model.NilObject {
		return id
	}
	if gen.rng.Intn(3) == 0 {
		if id := gen.pickAlive(gen.db.Roots); id != model.NilObject {
			return id
		}
	}
	if id := gen.pickAlive(gen.db.Blocks); id != model.NilObject {
		return id
	}
	return gen.pickAlive(gen.db.Roots)
}

func (gen *Generator) pickComponent() model.ObjectID {
	isComponent := func(id model.ObjectID) bool {
		o := gen.db.Graph.Object(id)
		return o != nil && len(o.Composites()) > 0
	}
	if id := gen.pickHot(isComponent); id != model.NilObject {
		return id
	}
	if gen.rng.Intn(2) == 0 {
		if id := gen.pickAlive(gen.db.Leaves); id != model.NilObject {
			return id
		}
	}
	return gen.pickAlive(gen.db.Blocks)
}

func (gen *Generator) pickRoot() model.ObjectID {
	if id := gen.pickHot(func(id model.ObjectID) bool {
		o := gen.db.Graph.Object(id)
		return o != nil && gen.isRootType(o.Type)
	}); id != model.NilObject {
		return id
	}
	return gen.pickAlive(gen.db.Roots)
}

// Next draws the next transaction. The write probability is 1/(1+RW) so the
// long-run read/write transaction ratio matches the parameter.
func (gen *Generator) Next() Op {
	if gen.rng.Float64() < 1/(1+gen.p.ReadWriteRatio) {
		return gen.nextWrite()
	}
	return gen.nextRead()
}

func (gen *Generator) nextRead() Op {
	var t Op
	switch x := gen.rng.Float64(); {
	case x < 0.04:
		// Batch-tool sweep over uniformly random (mostly cold) objects.
		scan := make([]model.ObjectID, 0, scanLength)
		for i := 0; i < scanLength; i++ {
			if id := gen.pickAlive(gen.db.Leaves); id != model.NilObject {
				scan = append(scan, id)
			}
		}
		if len(scan) > 0 {
			return Op{Kind: QScan, Target: scan[0], Targets: scan}
		}
		fallthrough
	case x < 0.14:
		t = Op{Kind: QCheckout, Target: gen.pickRoot()}
	case x < 0.48:
		t = Op{Kind: QComponentRetrieval, Target: gen.pickComposite()}
	case x < 0.60:
		t = Op{Kind: QSimpleLookup, Target: gen.pickComponent()}
	case x < 0.72:
		t = Op{Kind: QCompositeRetrieval, Target: gen.pickComponent()}
	case x < 0.84:
		t = Op{Kind: QCorresponding, Target: gen.pickRoot()}
	case x < 0.92:
		t = Op{Kind: QDescendantVersion, Target: gen.pickRoot()}
	default:
		t = Op{Kind: QAncestorVersion, Target: gen.pickRoot()}
	}
	if t.Target == model.NilObject {
		t = Op{Kind: QSimpleLookup, Target: gen.pickAlive(gen.db.Blocks)}
	}
	gen.touch(t.Target)
	return t
}

func (gen *Generator) nextWrite() Op {
	var t Op
	switch x := gen.rng.Float64(); {
	case x < 0.45:
		// Insert a new leaf (or block) under a composite being worked on.
		parent := gen.pickComposite()
		nt := gen.db.Schema.LeafTypes[gen.rng.Intn(len(gen.db.Schema.LeafTypes))]
		if po := gen.db.Graph.Object(parent); po != nil && gen.isRootType(po.Type) {
			nt = gen.db.Schema.BlockType
		}
		t = Op{Kind: QInsert, AttachTo: parent, NewType: nt}
	case x < 0.63:
		t = Op{Kind: QUpdate, Target: gen.pickComponent()}
	case x < 0.82:
		// Re-link a component under a different composite.
		t = Op{Kind: QStructUpdate, Target: gen.pickComponent(), AttachTo: gen.pickComposite()}
	case x < 0.92:
		t = Op{Kind: QDerive, Target: gen.pickRoot()}
	default:
		t = Op{Kind: QDelete, Target: gen.pickAlive(gen.db.Leaves)}
	}
	if t.Kind != QInsert && t.Target == model.NilObject {
		t = Op{Kind: QInsert, AttachTo: gen.pickAlive(gen.db.Blocks),
			NewType: gen.db.Schema.LeafTypes[0]}
	}
	if t.Target != model.NilObject {
		gen.touch(t.Target)
	}
	if t.AttachTo != model.NilObject {
		gen.touch(t.AttachTo)
	}
	return t
}
