package ocb

import (
	"math/rand"

	"oodb/internal/model"
	"oodb/internal/workload"
)

// NumReadOps is the number of OCB read operation kinds.
const NumReadOps = 4

// NumOps is the total number of OCB operation kinds: the four reads
// (scan, simple, hierarchy, stochastic) followed by the four evolution
// writes (insert, delete, update, rewire), in the order of the
// workload.QOCB* constants.
const NumOps = 8

// Generator produces the OCB operation kinds against a Base. It implements
// workload.Source, so the engine drives it exactly like the OCT generator:
// the random stream is a named kernel stream, and targets, write
// payload-size classes, and stochastic paths are resolved at generation
// time (so a recorded trace replays byte-identically).
//
// With the default read-only mix the object base never mutates, which is
// what makes cross-policy logical-result equivalence (the differential
// oracle's headline property) hold exactly. With writes enabled the base's
// Order and Extents indexes grow through NoteCreated — append-only, like
// the OCT database indexes, with deleted objects skipped at draw time.
type Generator struct {
	base *Base
	p    Params
	rng  *rand.Rand

	classIdx map[model.TypeID]int // leaf class -> extent index, for NoteCreated

	locus  int // DistClustered sliding-locality cursor
	tenant int // current tenant slice (multi-tenant skew)
	// reads and writes count the operations drawn; working-set drift
	// positions its locus by their sum.
	reads  int
	writes int
}

var _ workload.Source = (*Generator)(nil)

// NewGenerator creates a generator drawing randomness from rng. Params are
// defaulted, matching what engine construction validated.
func NewGenerator(base *Base, p Params, rng *rand.Rand) *Generator {
	gen := &Generator{base: base, p: p.WithDefaults(), rng: rng}
	if base == nil {
		return gen // distribution-only use (tests); no base to index
	}
	gen.classIdx = make(map[model.TypeID]int, len(base.Classes))
	for i, c := range base.Classes {
		gen.classIdx[c] = i
	}
	return gen
}

// Params returns the generator's (defaulted) parameters.
func (gen *Generator) Params() Params { return gen.p }

// SessionLength draws the number of transactions in a user session. With
// multi-tenant skew enabled, the session is also pinned to a tenant here:
// tenants are a per-session property (a client belongs to one tenant), and
// the draw is Zipfian so a few tenants dominate the load. The tenant draw
// only happens when Tenants > 1, so default streams consume no extra
// randomness.
func (gen *Generator) SessionLength() int {
	if gen.p.Tenants > 1 {
		gen.tenant = zipfOffset(gen.rng, gen.p.TenantSkew, gen.p.Tenants)
	}
	return gen.p.SessionMin + gen.rng.Intn(gen.p.SessionMax-gen.p.SessionMin+1)
}

// NoteCreated indexes an object the engine created while executing a
// QOCBInsert, so later operations can target it: it joins the global
// creation order and its class extent. Version links never grow at run
// time, so Versioned stays fixed.
func (gen *Generator) NoteCreated(id model.ObjectID, t model.TypeID) {
	gen.base.Order = append(gen.base.Order, id)
	if ci, ok := gen.classIdx[t]; ok {
		gen.base.Extents[ci] = append(gen.base.Extents[ci], id)
	}
}

// SetReadWriteRatio implements workload.Source. A write-enabled generator
// (constructed with ReadWriteRatio > 0) honors any positive ratio and
// reports true; a read-only generator reports false — flipping a read-only
// stream to writes mid-run would silently break the digest contract of
// recorded read-only streams, so the caller gets an explicit "unsupported"
// instead of a no-op.
func (gen *Generator) SetReadWriteRatio(rw float64) bool {
	if rw > 0 && gen.p.ReadWriteRatio > 0 {
		gen.p.ReadWriteRatio = rw
		return true
	}
	return false
}

// drawIndex picks an index in [0, n) under the configured distribution and,
// when multi-tenant skew is on, confined to the current tenant's
// creation-order slice. Hot/cold skew treats high (recent) indexes as hot;
// the clustered distribution walks a locality window around a slowly moving
// locus.
func (gen *Generator) drawIndex(n int) int {
	lo, hi := gen.tenantRange(n)
	return lo + gen.drawWithin(hi-lo)
}

// tenantRange returns the current tenant's slice of [0, n). With one tenant
// (the default) it is the whole range.
func (gen *Generator) tenantRange(n int) (lo, hi int) {
	t := gen.p.Tenants
	if t <= 1 || n < t {
		return 0, n
	}
	return n * gen.tenant / t, n * (gen.tenant + 1) / t
}

// drawWithin draws an index in [0, n); the locus cursor lives in the same
// coordinate space. Every branch consumes a fixed one (or, on locus
// relocation, two) uniforms, matching the pre-write generator draw for
// draw on default parameters.
func (gen *Generator) drawWithin(n int) int {
	if n <= 1 {
		return 0
	}
	switch gen.p.RefDist {
	case DistZipf:
		return n - 1 - zipfOffset(gen.rng, gen.p.ZipfS, n)
	case DistClustered:
		w := gen.p.LocalityWindow
		if w > n {
			w = n
		}
		if gen.p.DriftPeriod > 0 {
			// Deterministic working-set drift: the locus sweeps the base
			// half a window per period, so the hot set keeps moving and
			// placement decisions made for the old neighborhood go stale.
			step := w / 2
			if step < 1 {
				step = 1
			}
			gen.locus = (gen.reads + gen.writes) / gen.p.DriftPeriod * step % n
		} else if gen.locus >= n || gen.rng.Intn(16) == 0 {
			// Relocate the locus occasionally: sessions move between
			// neighborhoods, accesses within a session stay local.
			gen.locus = gen.rng.Intn(n)
		}
		i := gen.locus - w/2 + gen.rng.Intn(w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	default:
		return gen.rng.Intn(n)
	}
}

// Next draws the next OCB operation. Set-oriented scans and stochastic
// traversals resolve their full target lists here — scans because the
// extent sample is part of the operation's definition, stochastic walks
// because their randomness must live in the trace for replay to be
// byte-identical. Simple and hierarchy traversals carry only a root: their
// expansions are deterministic functions of the object graph. Writes
// resolve every choice — class, targets, payload-size class — here for the
// same reason. The write-probability draw happens only when writes are
// enabled, so read-only streams are byte-identical to the pre-write
// generator.
func (gen *Generator) Next() workload.Op {
	if gen.p.ReadWriteRatio > 0 && gen.rng.Float64() < 1/(1+gen.p.ReadWriteRatio) {
		gen.writes++
		return gen.nextWrite()
	}
	gen.reads++
	total := gen.p.WeightScan + gen.p.WeightSimple + gen.p.WeightHierarchy + gen.p.WeightStochastic
	x := gen.rng.Intn(total)
	switch {
	case x < gen.p.WeightScan:
		return gen.nextScan()
	case x < gen.p.WeightScan+gen.p.WeightSimple:
		return workload.Op{Kind: workload.QOCBSimple, Target: gen.pickObject()}
	case x < gen.p.WeightScan+gen.p.WeightSimple+gen.p.WeightHierarchy:
		return gen.nextHierarchy()
	default:
		return gen.nextStochastic()
	}
}

func (gen *Generator) pickObject() model.ObjectID {
	return gen.base.Order[gen.drawIndex(len(gen.base.Order))]
}

// pickAlive draws an object, skipping deleted ones (Order is append-only
// and subtree deletes leave stale IDs behind, like the OCT indexes).
func (gen *Generator) pickAlive() model.ObjectID {
	for try := 0; try < 8; try++ {
		id := gen.pickObject()
		if gen.base.Graph.Object(id) != nil {
			return id
		}
	}
	return model.NilObject
}

// nextScan samples a contiguous (wrapping) run of one class extent — a
// set-oriented scan over unrelated instances, the access pattern that
// punishes recency-only replacement.
func (gen *Generator) nextScan() workload.Op {
	class := gen.rng.Intn(len(gen.base.Extents))
	ext := gen.base.Extents[class]
	for try := 0; len(ext) == 0 && try < len(gen.base.Extents); try++ {
		class = (class + 1) % len(gen.base.Extents)
		ext = gen.base.Extents[class]
	}
	if len(ext) == 0 {
		return workload.Op{Kind: workload.QOCBSimple, Target: gen.pickObject()}
	}
	k := gen.p.ScanSample
	if k > len(ext) {
		k = len(ext)
	}
	start := gen.drawIndex(len(ext))
	scan := make([]model.ObjectID, k)
	for i := 0; i < k; i++ {
		scan[i] = ext[(start+i)%len(ext)]
	}
	return workload.Op{Kind: workload.QOCBScan, Target: scan[0], Targets: scan}
}

// nextHierarchy starts a hierarchy traversal at a versioned object (one
// carrying an inheritance link); the engine walks the chain upward.
func (gen *Generator) nextHierarchy() workload.Op {
	if len(gen.base.Versioned) == 0 {
		return workload.Op{Kind: workload.QOCBSimple, Target: gen.pickObject()}
	}
	t := gen.base.Versioned[gen.drawIndex(len(gen.base.Versioned))]
	return workload.Op{Kind: workload.QOCBHierarchy, Target: t}
}

// nextStochastic resolves a random walk along configuration references:
// from a drawn root, each step descends to a uniformly chosen component.
// The resolved path rides in Op.Targets so replay repeats it exactly.
func (gen *Generator) nextStochastic() workload.Op {
	cur := gen.pickObject()
	path := make([]model.ObjectID, 1, gen.p.Depth+1)
	path[0] = cur
	for step := 0; step < gen.p.Depth; step++ {
		o := gen.base.Graph.Object(cur)
		if o == nil || len(o.Components) == 0 {
			break
		}
		cur = o.Components[gen.rng.Intn(len(o.Components))]
		path = append(path, cur)
	}
	return workload.Op{Kind: workload.QOCBStochastic, Target: path[0], Targets: path}
}

// nextWrite dispatches one of the four evolution operations by weight.
// Helpers may still degrade to a cheaper operation when the base offers no
// valid target (the same convention the read helpers use).
func (gen *Generator) nextWrite() workload.Op {
	wi, wd, wu := gen.p.WeightInsert, gen.p.WeightDelete, gen.p.WeightUpdate
	total := wi + wd + wu + gen.p.WeightRewire
	x := gen.rng.Intn(total)
	switch {
	case x < wi:
		return gen.nextInsert()
	case x < wi+wd:
		return gen.nextDelete()
	case x < wi+wd+wu:
		return gen.nextUpdate()
	default:
		return gen.nextRewire()
	}
}

// nextInsert creates a new instance of a uniformly drawn leaf class, wired
// to RefsPerObject distinct pre-drawn reference targets (the objects the
// new one will be clustered near) with a drawn payload-size class.
func (gen *Generator) nextInsert() workload.Op {
	class := gen.rng.Intn(len(gen.base.Classes))
	size := workload.SizeClass(1 + gen.rng.Intn(3))
	k := gen.p.RefsPerObject
	targets := make([]model.ObjectID, 0, k)
	for try := 0; len(targets) < k && try < 4*k; try++ {
		id := gen.pickAlive()
		if id == model.NilObject {
			break
		}
		dup := false
		for _, t := range targets {
			if t == id {
				dup = true
				break
			}
		}
		if !dup {
			targets = append(targets, id)
		}
	}
	op := workload.Op{Kind: workload.QOCBInsert, NewType: gen.base.Classes[class], Size: size}
	if len(targets) > 0 {
		op.Target = targets[0]
		op.Targets = targets
	}
	return op
}

// nextDelete removes the configuration subtree under a drawn object; the
// engine dismantles it bottom-up, skipping shared or version-anchored
// members.
func (gen *Generator) nextDelete() workload.Op {
	id := gen.pickAlive()
	if id == model.NilObject {
		return gen.nextInsert()
	}
	return workload.Op{Kind: workload.QOCBDelete, Target: id}
}

// nextUpdate rewrites a drawn object's attribute payload with a drawn size
// class; a size-class change forces the engine to re-place the object.
func (gen *Generator) nextUpdate() workload.Op {
	id := gen.pickAlive()
	if id == model.NilObject {
		return gen.nextInsert()
	}
	return workload.Op{Kind: workload.QOCBUpdate, Target: id,
		Size: workload.SizeClass(1 + gen.rng.Intn(3))}
}

// nextRewire redirects a configuration reference: the engine detaches the
// target's first component and attaches the drawn AttachTo object instead.
// The later-created object is the one rewired, so references keep pointing
// backwards in creation order and the configuration graph stays acyclic.
func (gen *Generator) nextRewire() workload.Op {
	n := len(gen.base.Order)
	i, j := gen.drawIndex(n), gen.drawIndex(n)
	if i == j {
		return gen.nextUpdate()
	}
	if i < j {
		i, j = j, i
	}
	target, attach := gen.base.Order[i], gen.base.Order[j]
	if gen.base.Graph.Object(target) == nil || gen.base.Graph.Object(attach) == nil {
		return gen.nextUpdate()
	}
	return workload.Op{Kind: workload.QOCBRewire, Target: target, AttachTo: attach}
}
