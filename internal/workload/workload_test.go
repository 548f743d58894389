package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oodb/internal/model"
)

func TestDensityClassFanOut(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		if f := LowDensity.FanOut(rng); f < 1 || f > 3 {
			t.Fatalf("low fanout %d", f)
		}
		if f := MedDensity.FanOut(rng); f < 4 || f > 9 {
			t.Fatalf("med fanout %d", f)
		}
		if f := HighDensity.FanOut(rng); f < 10 || f > 16 {
			t.Fatalf("high fanout %d", f)
		}
	}
}

func TestDensityAndKindStrings(t *testing.T) {
	if LowDensity.String() != "low-3" || MedDensity.Short() != "med5" || HighDensity.String() != "high-10" {
		t.Fatal("density names wrong")
	}
	if QCheckout.String() != "checkout" || QScan.String() != "scan" {
		t.Fatal("query kind names wrong")
	}
	if !QInsert.IsWrite() || !QDerive.IsWrite() || QScan.IsWrite() || QCheckout.IsWrite() {
		t.Fatal("IsWrite classification wrong")
	}
	if p := DefaultParams(MedDensity, 10); p.Label() != "med5-10" {
		t.Fatalf("label=%q", p.Label())
	}
}

func TestGenerateShape(t *testing.T) {
	spec := DefaultDBSpec(MedDensity, 1<<20)
	db, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if db.Bytes < 1<<20 {
		t.Fatalf("generated %d bytes, want >= target", db.Bytes)
	}
	if len(db.Roots) == 0 || len(db.Blocks) == 0 || len(db.Leaves) == 0 {
		t.Fatal("index slices empty")
	}
	if len(db.Families) == 0 {
		t.Fatal("no creation sequences")
	}
	// Objects are all unplaced (placement is the engine's job).
	placed := 0
	db.Graph.ForEachObject(func(o *model.Object) {
		if db.Store.PageOf(o.ID) != 0 {
			placed++
		}
	})
	if placed != 0 {
		t.Fatalf("%d objects placed during generation", placed)
	}
	// Roots are composite, versioned where chains exist, and correspond to
	// their sibling representations.
	root := db.Graph.Object(db.Roots[0])
	if root == nil || len(root.Components()) == 0 {
		t.Fatal("root has no components")
	}
	if len(root.Correspondents()) == 0 {
		t.Fatal("root has no correspondences")
	}
	// Fan-outs respect the density class at generation time.
	for _, b := range db.Blocks[:50] {
		o := db.Graph.Object(b)
		if len(o.Components()) > 16 {
			t.Fatalf("block fanout %d out of range", len(o.Components()))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultDBSpec(LowDensity, 1<<19)
	a, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumObjects() != b.Graph.NumObjects() || a.Bytes != b.Bytes {
		t.Fatal("same spec must generate identical databases")
	}
}

func TestConstructionOrder(t *testing.T) {
	spec := DefaultDBSpec(MedDensity, 1<<20)
	db, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	order := db.ConstructionOrder(rand.New(rand.NewSource(3)), 4)
	if len(order) != db.Graph.NumObjects() {
		t.Fatalf("order covers %d of %d objects", len(order), db.Graph.NumObjects())
	}
	seen := make(map[model.ObjectID]bool, len(order))
	for _, id := range order {
		if seen[id] {
			t.Fatalf("object %d appears twice", id)
		}
		seen[id] = true
	}
	// The property the clusterer relies on: when a component is placed, at
	// least one of its composites is already placed. (Derived versions
	// attach *earlier* components, so not every composite precedes.)
	pos := make(map[model.ObjectID]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		o := db.Graph.Object(id)
		if len(o.Composites()) == 0 {
			continue
		}
		earliest := len(order)
		for _, comp := range o.Composites() {
			if p, ok := pos[comp]; ok && p < earliest {
				earliest = p
			}
		}
		if earliest > pos[id] {
			t.Fatalf("component %d placed before any of its composites", id)
		}
	}
}

// Property: the generator's long-run read/write transaction mix matches the
// configured ratio.
func TestGeneratorReadWriteRatio(t *testing.T) {
	spec := DefaultDBSpec(MedDensity, 1<<20)
	db, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range []float64{1, 5, 10, 100} {
		gen := NewGenerator(db, DefaultParams(MedDensity, rw), rand.New(rand.NewSource(9)))
		const n = 20000
		writes := 0
		for i := 0; i < n; i++ {
			tx := gen.Next()
			if tx.Kind != QInsert && tx.Kind != QScan && tx.Target == model.NilObject {
				t.Fatalf("transaction without target: %+v", tx)
			}
			if tx.Kind.IsWrite() {
				writes++
			}
		}
		got := float64(n-writes) / float64(writes)
		if math.Abs(got-rw)/rw > 0.25 {
			t.Fatalf("rw=%g: measured %.2f", rw, got)
		}
	}
}

func TestGeneratorSessionLength(t *testing.T) {
	spec := DefaultDBSpec(LowDensity, 1<<19)
	db, _ := Generate(spec, 4096)
	gen := NewGenerator(db, DefaultParams(LowDensity, 10), rand.New(rand.NewSource(2)))
	for i := 0; i < 1000; i++ {
		if l := gen.SessionLength(); l < 5 || l > 20 {
			t.Fatalf("session length %d", l)
		}
	}
}

func TestGeneratorNoteCreated(t *testing.T) {
	spec := DefaultDBSpec(LowDensity, 1<<19)
	db, _ := Generate(spec, 4096)
	gen := NewGenerator(db, DefaultParams(LowDensity, 10), rand.New(rand.NewSource(2)))
	nb, nl, nr := len(db.Blocks), len(db.Leaves), len(db.Roots)
	b, _ := db.Graph.NewObject("b", 1, db.Schema.BlockType)
	l, _ := db.Graph.NewObject("l", 1, db.Schema.LeafTypes[0])
	r, _ := db.Graph.NewObject("r", 1, db.Schema.RootTypes[0])
	gen.NoteCreated(b.ID, b.Type)
	gen.NoteCreated(l.ID, l.Type)
	gen.NoteCreated(r.ID, r.Type)
	if len(db.Blocks) != nb+1 || len(db.Leaves) != nl+1 || len(db.Roots) != nr+1 {
		t.Fatal("NoteCreated misrouted")
	}
}

// Property: every generated transaction kind is valid and scans carry a
// non-empty target list.
func TestGeneratorTxnsWellFormed(t *testing.T) {
	spec := DefaultDBSpec(HighDensity, 1<<20)
	db, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		gen := NewGenerator(db, DefaultParams(HighDensity, 10), rand.New(rand.NewSource(seed)))
		for i := 0; i < 300; i++ {
			tx := gen.Next()
			if tx.Kind >= NumQueryKinds {
				return false
			}
			switch tx.Kind {
			case QScan:
				if len(tx.Targets) == 0 {
					return false
				}
			case QInsert:
				if tx.AttachTo == model.NilObject || tx.NewType == model.NilType {
					return false
				}
			default:
				if tx.Target == model.NilObject {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
