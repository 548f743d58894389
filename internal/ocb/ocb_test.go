package ocb

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"oodb/internal/model"
	"oodb/internal/workload"
)

const (
	testBytes = 96 * 1024
	testPage  = 2048
)

func testBase(t *testing.T, p Params, seed int64) *Base {
	t.Helper()
	b, err := Generate(p, testBytes, testPage, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return b
}

func TestParamsDefaultsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := (Params{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaulted zero params invalid: %v", err)
	}
	// An unset SessionMax stretches to cover a SessionMin above its default
	// 20, and a negative SizeSpread reads as "no jitter" (0 means 80).
	if d := (Params{SessionMin: 30}).WithDefaults(); d.SessionMax != 30 || d.Validate() != nil {
		t.Errorf("SessionMin 30 defaults SessionMax to %d (%v), want 30", d.SessionMax, d.Validate())
	}
	if d := (Params{SizeSpread: -1}).WithDefaults(); d.SizeSpread != 0 || d.Validate() != nil {
		t.Errorf("a negative SizeSpread reads as %d (%v), want 0", d.SizeSpread, d.Validate())
	}
	bad := []Params{
		func() (p Params) { p = DefaultParams(); p.HierarchyDepth = 7; return }(),
		func() (p Params) { p = DefaultParams(); p.HierarchyFanout = 9; return }(),
		func() (p Params) { p = DefaultParams(); p.RefsPerObject = 17; return }(),
		func() (p Params) { p = DefaultParams(); p.RefDist = numRefDists; return }(),
		func() (p Params) { p = DefaultParams(); p.Depth = 9; return }(),
		func() (p Params) { p = DefaultParams(); p.SessionMin = 5; p.SessionMax = 4; return }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestParseRefDistRoundTrip(t *testing.T) {
	for _, d := range RefDists {
		got, err := ParseRefDist(d.String())
		if err != nil || got != d {
			t.Errorf("ParseRefDist(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseRefDist("pareto"); err == nil {
		t.Error("unknown distribution accepted")
	}
}

// baseDigest folds every structural property of a base into one value:
// creation order, per-object sizes, inheritance links, and configuration
// references.
func baseDigest(b *Base) uint64 {
	h := uint64(0xcbf29ce484222325)
	fold := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	for _, id := range b.Order {
		o := b.Graph.Object(id)
		fold(uint64(id))
		fold(uint64(o.Size))
		fold(uint64(o.InheritsFrom))
		for _, c := range o.Components() {
			fold(uint64(c))
		}
	}
	return h
}

func TestGenerateDeterministic(t *testing.T) {
	for _, d := range RefDists {
		p := DefaultParams()
		p.RefDist = d
		a := testBase(t, p, 42)
		b := testBase(t, p, 42)
		if !reflect.DeepEqual(a.Order, b.Order) {
			t.Fatalf("%s: same seed produced different creation orders", d)
		}
		if !reflect.DeepEqual(a.Versioned, b.Versioned) || a.Bytes != b.Bytes {
			t.Fatalf("%s: same seed produced different bases", d)
		}
		if baseDigest(a) != baseDigest(b) {
			t.Fatalf("%s: same seed produced different structural digests", d)
		}
		c := testBase(t, p, 43)
		if baseDigest(a) == baseDigest(c) {
			t.Fatalf("%s: different seeds produced identical structural digests", d)
		}
	}
}

// TestGenerateAcyclicAndConnected: references always point backwards in
// creation order (so the configuration graph is a DAG), and the combined
// reference + inheritance graph is weakly connected.
func TestGenerateAcyclicAndConnected(t *testing.T) {
	for _, d := range RefDists {
		p := DefaultParams()
		p.RefDist = d
		b := testBase(t, p, 7)

		pos := make(map[model.ObjectID]int, len(b.Order))
		for i, id := range b.Order {
			pos[id] = i
		}

		parent := make([]int, len(b.Order))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		union := func(a, b int) { parent[find(a)] = find(b) }

		for i, id := range b.Order {
			o := b.Graph.Object(id)
			for _, c := range o.Components() {
				j, ok := pos[c]
				if !ok {
					t.Fatalf("%s: %d references unknown object %d", d, id, c)
				}
				if j >= i {
					t.Fatalf("%s: forward reference %d -> %d (creation %d -> %d): cycle possible", d, id, c, i, j)
				}
				union(i, j)
			}
			if o.InheritsFrom != model.NilObject {
				j, ok := pos[o.InheritsFrom]
				if !ok {
					t.Fatalf("%s: %d inherits from unknown object", d, id)
				}
				if j >= i {
					t.Fatalf("%s: inheritance link points forward in creation order", d)
				}
				union(i, j)
			}
		}
		root := find(0)
		for i := range parent {
			if find(i) != root {
				t.Fatalf("%s: object base not weakly connected (object %d isolated from object 0)", d, i)
			}
		}
	}
}

// TestDistributionShapes checks the three drawIndex distributions against
// their defining statistical properties over 20000 draws.
func TestDistributionShapes(t *testing.T) {
	const n, draws = 10000, 20000

	gen := func(d RefDist) *Generator {
		p := DefaultParams()
		p.RefDist = d
		return NewGenerator(nil, p, rand.New(rand.NewSource(99)))
	}

	// Uniform: each decile holds draws/10 +/- 15%.
	g := gen(DistUniform)
	var deciles [10]int
	for i := 0; i < draws; i++ {
		deciles[g.drawIndex(n)*10/n]++
	}
	for i, c := range deciles {
		if c < draws/10*85/100 || c > draws/10*115/100 {
			t.Errorf("uniform: decile %d holds %d draws, want %d +/- 15%%", i, c, draws/10)
		}
	}

	// Zipf: mass concentrates on the hot (recent, high-index) end.
	g = gen(DistZipf)
	hot := 0
	for i := 0; i < draws; i++ {
		if g.drawIndex(n) >= n*9/10 {
			hot++
		}
	}
	if hot < draws*40/100 {
		t.Errorf("zipf: top decile holds %d/%d draws, want >= 40%%", hot, draws)
	}

	// Clustered: consecutive draws stay inside the locality window except
	// when the locus relocates (~1/16 of draws).
	g = gen(DistClustered)
	local, prev := 0, g.drawIndex(n)
	w := g.p.LocalityWindow
	for i := 1; i < draws; i++ {
		cur := g.drawIndex(n)
		if diff := cur - prev; diff >= -w && diff <= w {
			local++
		}
		prev = cur
	}
	if local < draws*60/100 {
		t.Errorf("clustered: only %d/%d consecutive draws were window-local, want >= 60%%", local, draws)
	}
}

func TestZipfOffsetRangeAndSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, draws = 1000, 20000
	var zero int
	for i := 0; i < draws; i++ {
		off := zipfOffset(rng, 2.0, n)
		if off < 0 || off >= n {
			t.Fatalf("zipfOffset out of range: %d", off)
		}
		if off == 0 {
			zero++
		}
	}
	// P(offset == 0) = P(u > 0.5) = 0.5 for s=2.
	if zero < draws*40/100 || zero > draws*60/100 {
		t.Errorf("zipfOffset(s=2): offset 0 drawn %d/%d times, want ~50%%", zero, draws)
	}
}

// TestGeneratorSameSeedSameStream: two generators over one base with
// identically seeded streams produce identical transactions; the resolved
// target lists (scans, stochastic paths) are part of the stream.
func TestGeneratorSameSeedSameStream(t *testing.T) {
	b := testBase(t, DefaultParams(), 11)
	g1 := NewGenerator(b, DefaultParams(), rand.New(rand.NewSource(5)))
	g2 := NewGenerator(b, DefaultParams(), rand.New(rand.NewSource(5)))
	var sawScan, sawStochastic bool
	for i := 0; i < 600; i++ {
		t1, t2 := g1.Next(), g2.Next()
		if !reflect.DeepEqual(t1, t2) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, t1, t2)
		}
		switch t1.Kind {
		case workload.QOCBScan:
			sawScan = true
		case workload.QOCBStochastic:
			sawStochastic = true
		}
	}
	if !sawScan || !sawStochastic {
		t.Fatalf("600 ops never produced a scan (%v) or stochastic walk (%v)", sawScan, sawStochastic)
	}
	if g1.SessionLength() != g2.SessionLength() {
		t.Fatal("session lengths diverged")
	}
}

// TestSessionLengthRange: session lengths are drawn uniformly from
// [SessionMin, SessionMax], both ends included; equal bounds fix the length.
func TestSessionLengthRange(t *testing.T) {
	for _, r := range []struct{ min, max int }{{3, 7}, {5, 20}, {9, 9}} {
		p := DefaultParams()
		p.SessionMin, p.SessionMax = r.min, r.max
		g := NewGenerator(nil, p, rand.New(rand.NewSource(7)))
		seen := map[int]bool{}
		for i := 0; i < 2000; i++ {
			l := g.SessionLength()
			if l < r.min || l > r.max {
				t.Fatalf("[%d, %d]: session length %d out of range", r.min, r.max, l)
			}
			seen[l] = true
		}
		if len(seen) != r.max-r.min+1 {
			t.Errorf("[%d, %d]: saw %d distinct lengths, want %d", r.min, r.max, len(seen), r.max-r.min+1)
		}
	}
}

// TestGeneratorKindsValid: every generated transaction is one of the four
// OCB kinds, is a read, and carries valid targets.
func TestGeneratorKindsValid(t *testing.T) {
	b := testBase(t, DefaultParams(), 13)
	g := NewGenerator(b, DefaultParams(), rand.New(rand.NewSource(17)))
	p := g.Params()
	for i := 0; i < 500; i++ {
		tx := g.Next()
		if tx.Kind < workload.QOCBScan || tx.Kind > workload.QOCBStochastic {
			t.Fatalf("op %d: non-OCB kind %v", i, tx.Kind)
		}
		if tx.Kind.IsWrite() {
			t.Fatalf("op %d: OCB generated a write (%v)", i, tx.Kind)
		}
		if b.Graph.Object(tx.Target) == nil {
			t.Fatalf("op %d: target %d not in object base", i, tx.Target)
		}
		switch tx.Kind {
		case workload.QOCBScan:
			if len(tx.Targets) == 0 || len(tx.Targets) > p.ScanSample {
				t.Fatalf("op %d: scan of %d objects, want 1..%d", i, len(tx.Targets), p.ScanSample)
			}
		case workload.QOCBStochastic:
			if len(tx.Targets) == 0 || len(tx.Targets) > p.Depth+1 {
				t.Fatalf("op %d: stochastic path of %d steps, want 1..%d", i, len(tx.Targets), p.Depth+1)
			}
			for k := 1; k < len(tx.Targets); k++ {
				o := b.Graph.Object(tx.Targets[k-1])
				found := false
				for _, c := range o.Components() {
					if c == tx.Targets[k] {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("op %d: stochastic step %d does not follow a configuration reference", i, k)
				}
			}
		}
	}
}

// TestValidateSeesRawValues: WithDefaults fills a field only at zero, so
// Validate refuses every out-of-domain value by name instead of running it
// as the default: a negative count or fraction, a skew at most 1, NaN in a
// float field, a negative weight, and a SessionMax below SessionMin (an
// unset SessionMin is 5).
func TestValidateSeesRawValues(t *testing.T) {
	for _, tc := range []struct {
		field string
		p     Params
	}{
		{"HierarchyDepth", Params{HierarchyDepth: -1}},
		{"HierarchyFanout", Params{HierarchyFanout: -2}},
		{"BaseSize", Params{BaseSize: -200}},
		{"RefsPerObject", Params{RefsPerObject: -2}},
		{"ZipfS", Params{ZipfS: 0.5}},
		{"ZipfS", Params{ZipfS: -2}},
		{"ZipfS", Params{ZipfS: math.NaN()}},
		{"LocalityWindow", Params{LocalityWindow: -64}},
		{"VersionChainMax", Params{VersionChainMax: -3}},
		{"VersionFraction", Params{VersionFraction: -0.15}},
		{"VersionFraction", Params{VersionFraction: 1.5}},
		{"Depth", Params{Depth: -3}},
		{"ScanSample", Params{ScanSample: -1}},
		{"operation weights", Params{WeightScan: -1}},
		{"SessionMin", Params{SessionMin: -5}},
		{"SessionMax", Params{SessionMax: 3}},
		{"SessionMax", Params{SessionMin: 8, SessionMax: 6}},
		{"ReadWriteRatio", Params{ReadWriteRatio: math.NaN()}},
		{"write-operation weights", Params{ReadWriteRatio: 2, WeightInsert: -1}},
		{"Tenants", Params{Tenants: -4}},
		{"TenantSkew", Params{TenantSkew: 0.5}},
		{"TenantSkew", Params{TenantSkew: math.NaN()}},
		{"DriftPeriod", Params{DriftPeriod: -7}},
	} {
		if err := tc.p.WithDefaults().Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: got %v, want an error naming it", tc.field, err)
		}
	}
}
