package experiment

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"oodb/internal/golden"
)

// figureShape is what a table must look like at any fixture size: its
// shape and, where the figure has one, an invariant its cells keep however
// few transactions produced them.
type figureShape struct {
	rows, cols int
	check      func(t *testing.T, tb *Table)
}

// figures has one row per registered experiment; TestRegistryComplete
// holds the two sets equal, so a new figure cannot skip its shape check.
var figures = map[string]figureShape{
	"fig3.2": {10, 1, vemTopsRatios},
	"fig3.3": {10, 1, positiveCells},
	"fig3.4": {10, 3, sharesSumToOne},

	"fig5.1":   {9, 5, positiveCells},
	"fig5.2":   {3, 5, positiveCells},
	"fig5.3":   {3, 5, positiveCells},
	"fig5.4":   {3, 5, positiveCells},
	"fig5.5":   {3, 2, positiveCells},
	"fig5.6":   {5, 5, positiveCells},
	"fig5.7":   {5, 5, positiveCells},
	"fig5.8":   {5, 5, positiveCells},
	"fig5.9":   {9, 3, positiveCells},
	"fig5.10":  {9, 4, nonNegativeCells}, // NP_Split's cut is the minimum
	"fig5.11":  {9, 6, positiveCells},
	"fig5.12":  {9, 3, positiveCells},
	"fig5.13":  {9, 3, positiveCells},
	"fig5.14":  {9, 3, positiveCells},
	"table5.1": {3, 1, positiveCells},

	"fig6.1": {20, 2, rankedEffects},
	"fig6.2": {28, 3, interactionClasses},

	"ext.adaptive":         {3, 3, nonNegativeCells},
	"ext.ablation.sibling": {2, 3, nonNegativeCells},
	"ext.ablation.boost":   {4, 2, nonNegativeCells},
	"ext.buffersize":       {3, 2, nonNegativeCells},
	"ext.hints":            {6, 2, nonNegativeCells},

	"ocb.policies":   {3, 4, positiveCells}, // one row per reference distribution
	"ocb.traversals": {4, 3, kindsCoverTransactions},
	"tournament":     {6, 4, positiveCells},
}

// sweep renders every registered experiment once, at the figure size on
// the worker pool oodbsim -all uses; the tests below read their tables from
// it, so the package pays for one sweep however many of them run.
var sweep struct {
	once   sync.Once
	tables map[string]*Table
	err    error
}

// swept returns the sweep's tables for ids, each held to its row of
// figures. Under -short, which skips the sweep, it renders just ids at the
// figure size instead.
func swept(t *testing.T, ids ...string) []*Table {
	t.Helper()
	if testing.Short() {
		tables, err := NewHarness(figure).RunAll(ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			checkFigure(t, tb)
		}
		return tables
	}
	sweep.once.Do(func() {
		tables, err := NewHarness(figure).RunAll(IDs())
		sweep.tables, sweep.err = map[string]*Table{}, err
		for _, tb := range tables {
			sweep.tables[tb.ID] = tb
		}
	})
	if sweep.err != nil {
		t.Fatal(sweep.err)
	}
	out := make([]*Table, len(ids))
	for i, id := range ids {
		out[i] = sweep.tables[id]
		checkFigure(t, out[i])
	}
	return out
}

// TestFullFigureSweep holds every registered experiment's table to its row
// of figures, and pins all of them, in IDs() order, to sweep.txt.
func TestFullFigureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep runs 524 simulations")
	}
	renders := make([]string, 0, len(figures))
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) { renders = append(renders, swept(t, id)[0].Render()) })
	}
	golden.Assert(t, "sweep.txt", strings.Join(renders, "\n"))
}

// TestParallelMatchesSerialRender pins the three goldens. fig5.2 has its
// own size and renders at one worker and at four, also under -short, so
// -race sees the pool at both widths; fig6.1 and the tournament come from
// the sweep.
func TestParallelMatchesSerialRender(t *testing.T) {
	for _, workers := range []int{1, 4} {
		o := fig52Golden
		o.Workers = workers
		tables, err := NewHarness(o).RunAll([]string{"fig5.2"})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		checkFigure(t, tables[0])
		golden.Assert(t, "fig5.2.txt", tables[0].Render())
	}
	if testing.Short() {
		return
	}
	for _, tb := range swept(t, "fig6.1", "tournament") {
		golden.Assert(t, tb.ID+".txt", tb.Render())
	}
}

// TestClonedBatchMatchesSweep renders fig5.6, whose 25 runs share 5 worlds
// at the figure size, on a fresh harness of four workers, also under
// -short, so -race sees runs on clones. It must build each world once and
// render what the sweep golden holds for it.
func TestClonedBatchMatchesSweep(t *testing.T) {
	h := NewHarness(figure)
	tables, err := h.RunAll([]string{"fig5.6"})
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, tables[0])
	if built, cloned := h.built.Load(), h.cloned.Load(); built != 5 || cloned != 20 || h.Executed() != 25 {
		t.Errorf("built %d worlds for %d runs, %d on clones; want 5 for 25, 20 on clones", built, h.Executed(), cloned)
	}
	if got, want := tables[0].Render(), sweepSection(t, "fig5.6"); got != want {
		t.Errorf("fig5.6 diverges from its section of sweep.txt:\n%s\nwant:\n%s", got, want)
	}
}

// sweepSection returns the render of experiment id held in sweep.txt.
func sweepSection(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(golden.Path("sweep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	head := strings.ToUpper(id[:1]) + id[1:] + " -- "
	for _, sec := range strings.Split(string(data), "\n\n") {
		if strings.HasPrefix(sec, head) {
			return strings.TrimSuffix(sec, "\n") + "\n"
		}
	}
	t.Fatalf("sweep.txt has no section for %s", id)
	return ""
}

// The structure tests below name the figures whose shapes they own; the
// checks themselves are those figures' rows of figures.

func TestSection3Experiments(t *testing.T) { swept(t, "fig3.2", "fig3.3", "fig3.4") }

func TestFig52Structure(t *testing.T) { swept(t, "fig5.2") }

func TestExtensionExperimentStructures(t *testing.T) {
	swept(t, "ext.adaptive", "ext.ablation.sibling", "ext.ablation.boost", "ext.buffersize", "ext.hints")
}

func TestOCBExperimentsRender(t *testing.T) { swept(t, "ocb.policies", "ocb.traversals") }

// checkFigure holds tb to its row of figures: shape, no ragged row, and
// the row's invariant.
func checkFigure(t *testing.T, tb *Table) {
	t.Helper()
	want, ok := figures[tb.ID]
	if !ok {
		t.Fatalf("%s has no row in figures", tb.ID)
	}
	if len(tb.Rows) != want.rows || len(tb.Columns) != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", tb.ID, len(tb.Rows), len(tb.Columns), want.rows, want.cols)
	}
	for _, row := range tb.Rows {
		if len(row.Cells) != len(tb.Columns) {
			t.Fatalf("%s: ragged row %q", tb.ID, row.Label)
		}
	}
	want.check(t, tb)
}

func positiveCells(t *testing.T, tb *Table) {
	t.Helper()
	for _, row := range tb.Rows {
		for i, v := range row.Cells {
			if v <= 0 {
				t.Errorf("%s[%s, %s] = %v, want > 0", tb.ID, row.Label, tb.Columns[i], v)
			}
		}
	}
}

func nonNegativeCells(t *testing.T, tb *Table) {
	t.Helper()
	for _, row := range tb.Rows {
		for i, v := range row.Cells {
			if v < 0 {
				t.Errorf("%s[%s, %s] = %v, want >= 0", tb.ID, row.Label, tb.Columns[i], v)
			}
		}
	}
}

// vemTopsRatios: Figure 3.2's headline, vem's ratio near 6000.
func vemTopsRatios(t *testing.T, tb *Table) {
	t.Helper()
	positiveCells(t, tb)
	vem, err := tb.Cell("vem", "R/W ratio")
	if err != nil {
		t.Fatal(err)
	}
	if vem < 4000 {
		t.Errorf("vem ratio %.0f, want >= 4000", vem)
	}
}

// sharesSumToOne: each Figure 3.4 row is a distribution over densities.
func sharesSumToOne(t *testing.T, tb *Table) {
	t.Helper()
	nonNegativeCells(t, tb)
	for _, row := range tb.Rows {
		if sum := row.Cells[0] + row.Cells[1] + row.Cells[2]; sum < 0.99 || sum > 1.01 {
			t.Errorf("%s shares sum to %v", row.Label, sum)
		}
	}
}

// rankedEffects: Figure 6.1 lists effects by falling magnitude, and its
// second column is the first's magnitude.
func rankedEffects(t *testing.T, tb *Table) {
	t.Helper()
	for i, row := range tb.Rows {
		if row.Cells[1] != math.Abs(row.Cells[0]) {
			t.Errorf("%s: |effect| %v for effect %v", row.Label, row.Cells[1], row.Cells[0])
		}
		if i > 0 && row.Cells[1] > tb.Rows[i-1].Cells[1] {
			t.Errorf("%s ranked below a smaller effect", row.Label)
		}
	}
}

// interactionClasses: each Figure 6.2 pair is classed none, minor or major.
func interactionClasses(t *testing.T, tb *Table) {
	t.Helper()
	for _, row := range tb.Rows {
		if c := row.Cells[2]; c != 0 && c != 1 && c != 2 {
			t.Errorf("%s: class %v", row.Label, c)
		}
	}
}

// kindsCoverTransactions: one ocb.traversals row per OCB operation kind,
// in benchmark order, whose counts add up to every transaction run.
func kindsCoverTransactions(t *testing.T, tb *Table) {
	t.Helper()
	nonNegativeCells(t, tb)
	var txns float64
	for i, row := range tb.Rows {
		if want := ocbKinds[i].String(); row.Label != want {
			t.Errorf("row %d is %q, want %q", i, row.Label, want)
		}
		txns += row.Cells[0]
	}
	if int(txns) != figure.Transactions {
		t.Errorf("kind counts sum to %v, want %d", txns, figure.Transactions)
	}
}
