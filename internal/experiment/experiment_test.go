package experiment

import (
	"strings"
	"testing"

	"oodb/internal/engine"
)

// Fixture sizes. Every harness in this package's tests is built from one
// of these; a new test takes the smallest whose "use for" fits it.
var (
	// figure renders every registered experiment in the tests' shared
	// sweep (523 runs, ~5 s on two vCPUs) and pins fig6.1.txt and tournament.txt.
	// Use for: shapes and invariants that hold at any size, and the
	// harness mechanics (memo, dedup, order, errors, the results cache,
	// replications). Not for: which policy wins, which 120 transactions
	// cannot settle. Changing it rewrites two goldens.
	figure = Options{Scale: 0.004, Transactions: 120, Seed: 1, Workers: 4}

	// fig52Golden pins fig5.2.txt, the one golden cheap enough (15 runs)
	// to render under -short. Use for: that golden only; changing it
	// rewrites the file.
	fig52Golden = Options{Scale: 0.005, Transactions: 200, Seed: 1}

	// direction is where TestFig55LoggingDirection checks a paper claim's
	// direction: at high density, clustering logs no more than no
	// clustering. Use for: which policy wins. At figure size the claim
	// holds by noise-sized margins (seed 3 clears the 5 % tolerance by
	// 0.4 %). Not for: anything that holds at figure size.
	direction = Options{Scale: 0.02, Transactions: 1200, Seed: 1}
)

// The registry and the table of figure shapes name the same experiments.
func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	for _, id := range ids {
		if _, ok := figures[id]; !ok {
			t.Errorf("experiment %s has no row in figures", id)
		}
	}
	if len(ids) != len(figures) {
		t.Errorf("%d experiments registered, figures has %d rows", len(ids), len(figures))
	}
	if _, ok := Lookup("fig5.1"); !ok {
		t.Error("Lookup failed for registered id")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup succeeded for bogus id")
	}
}

func TestHarnessMemoizes(t *testing.T) {
	h := NewHarness(figure)
	cfg := h.baseConfig()
	a, err := h.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponse != b.MeanResponse {
		t.Fatal("memoized run differs")
	}
	if len(h.cache) != 1 {
		t.Fatalf("cache size %d", len(h.cache))
	}
}

func TestTableCellAndRender(t *testing.T) {
	tb := &Table{
		ID: "figX", Title: "T", XLabel: "x", Unit: "s",
		Columns: []string{"a", "b"},
		Rows:    []Row{{Label: "r1", Cells: []float64{1, 2}}},
		Notes:   []string{"n"},
	}
	v, err := tb.Cell("r1", "b")
	if err != nil || v != 2 {
		t.Fatalf("cell: %v %v", v, err)
	}
	if _, err := tb.Cell("r1", "zz"); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := tb.Cell("zz", "a"); err == nil {
		t.Fatal("missing row accepted")
	}
	out := tb.Render()
	for _, want := range []string{"FigX", "r1", "note: n", "a", "b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig55LoggingDirection(t *testing.T) {
	h := NewHarness(direction)
	tb, err := Fig55(h)
	if err != nil {
		t.Fatal(err)
	}
	// At high density, clustering must not log more than no-clustering.
	n, err := tb.Cell("high-10", "No_Cluster")
	if err != nil {
		t.Fatal(err)
	}
	c, err := tb.Cell("high-10", "No_limit")
	if err != nil {
		t.Fatal(err)
	}
	if c > n*1.05 {
		t.Fatalf("clustered logging I/Os %.1f exceed unclustered %.1f", c, n)
	}
}

func TestCrossing(t *testing.T) {
	x := []float64{1, 2, 4, 8}
	// Crosses between 2 and 4.
	if be := crossing(x, []float64{-2, -1, 1, 3}); be <= 2 || be >= 4 {
		t.Fatalf("break-even %v", be)
	}
	// Always positive: break-even at or below the first probe.
	if be := crossing(x, []float64{1, 2, 3, 4}); be != 1 {
		t.Fatalf("break-even %v", be)
	}
	// Never crosses: clamped to the last probe.
	if be := crossing(x, []float64{-1, -2, -3, -4}); be != 8 {
		t.Fatalf("break-even %v", be)
	}
	if crossing(nil, nil) != 0 {
		t.Fatal("empty crossing")
	}
}

func TestImprovementHelper(t *testing.T) {
	tb := &Table{
		ID:      "fig5.1",
		Columns: []string{"No_Cluster", "No_limit"},
		Rows:    []Row{{Label: "hi10-100", Cells: []float64{0.2, 0.1}}},
	}
	v, err := improvement(tb, "hi10-100")
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("improvement %v%%, want 100%%", v)
	}
}

func TestFactorialConfigMapping(t *testing.T) {
	h := NewHarness(figure)
	lo := h.factorialConfig(0)
	hi := h.factorialConfig(0xFF)
	if lo.Density != 0 || hi.Density == lo.Density {
		t.Fatal("density levels wrong")
	}
	if lo.ReadWriteRatio != 5 || hi.ReadWriteRatio != 100 {
		t.Fatal("rw levels wrong")
	}
	if lo.Cluster.Mode != 0 || hi.Cluster != lo.Cluster && hi.Cluster.String() != "No_limit" {
		t.Fatal("cluster levels wrong")
	}
	if lo.Buffers >= hi.Buffers {
		t.Fatal("buffer levels wrong")
	}
	d := h.factorialDesign()
	if len(d.Factors) != 8 || d.Runs() != 256 {
		t.Fatalf("design: %d factors", len(d.Factors))
	}
	for _, f := range d.Factors {
		if shortName(f.Name) == f.Name {
			t.Errorf("no short name for %q", f.Name)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tb := &Table{ID: "figX", Columns: []string{"a"}, Rows: []Row{{Label: "r", Cells: []float64{1}}}}
	out, err := tb.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ID": "figX"`, `"Label": "r"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
}

func TestReplicationsAveraged(t *testing.T) {
	reps := figure
	reps.Replications = 3
	one, three := NewHarness(figure), NewHarness(reps)
	cfg := one.baseConfig()
	r1, err := one.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := three.baseConfig()
	r3, err := three.Run(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.MeanResponse <= 0 {
		t.Fatal("averaged response not positive")
	}
	// Seeds 2 and 3 differ from seed 1, so the average almost surely moves.
	if r3.MeanResponse == r1.MeanResponse {
		t.Fatal("replication average identical to single run")
	}
	// averageResults of a single element is the element.
	if got := averageResults([]engine.Results{r1}); got.MeanResponse != r1.MeanResponse {
		t.Fatal("single-element average changed the result")
	}
}
