package oodb_test

import (
	"fmt"
	"math/rand"

	"oodb"
	"oodb/internal/oct"
)

// The paper's scenarios in small form. Each output block pins the numbers
// the thesis rests on, so a change to placement, buffering or prefetching
// that moves one of them fails here.

// netlistWalk builds the netlist simulator's design under one clustering
// policy and walks cell → nets → segments against a 16-frame pool. It
// returns the store, its final stats and the physical reads of the walks.
func netlistWalk(cluster oodb.ClusterPolicy) (*oodb.DB, oodb.IOStats, int) {
	const nCells, netsPer, segsPer, nWalks = 200, 10, 6, 400
	db := must(oodb.Open(oodb.Options{
		BufferFrames: 16,
		Replacement:  oodb.ReplLRU,
		Cluster:      cluster,
		Split:        oodb.LinearSplit,
	}))
	var cellFreq, netFreq, segFreq oodb.FreqProfile
	cellFreq[oodb.ConfigDown] = 0.7
	netFreq[oodb.ConfigDown] = 0.5
	netFreq[oodb.ConfigUp] = 0.3
	segFreq[oodb.ConfigUp] = 0.7
	cellT := must(db.DefineType("cell", oodb.NilType, 220, cellFreq, nil))
	netT := must(db.DefineType("net", oodb.NilType, 140, netFreq, nil))
	segT := must(db.DefineType("segment", oodb.NilType, 90, segFreq, nil))

	// Construction interleaves across cells, the way a real netlist
	// accumulates, so sequential placement scatters related objects.
	rng := rand.New(rand.NewSource(7))
	cells := make([]oodb.ObjectID, nCells)
	for i := range cells {
		cells[i] = must(db.CreateObject(fmt.Sprintf("CELL%d", i), 1, cellT)).ID
	}
	var nets []oodb.ObjectID
	for j := 0; j < netsPer; j++ {
		for _, ci := range rng.Perm(nCells) {
			nets = append(nets, must(db.CreateAttached(fmt.Sprintf("NET%d_%d", ci, j), 1, netT, cells[ci])).ID)
		}
	}
	for s := 0; s < segsPer; s++ {
		for _, n := range nets {
			if rng.Intn(2) == 1 {
				must(db.CreateAttached("SEG", s, segT, n))
			}
		}
	}

	before := db.Stats()
	for w := 0; w < nWalks; w++ {
		for _, n := range must(db.GetClosure(cells[rng.Intn(nCells)], oodb.ConfigDown)) {
			must(db.GetClosure(n.ID, oodb.ConfigDown))
		}
	}
	after := db.Stats()
	return db, after, after.PageReads - before.PageReads
}

// Example_netlistSimulation is the paper's motivating simulation tool: a
// netlist simulator repeatedly walks the configuration hierarchy, and
// clustering along that hierarchy is what makes the walk cheap.
func Example_netlistSimulation() {
	dbN, stN, readsN := netlistWalk(oodb.PolicyNoCluster)
	dbC, stC, readsC := netlistWalk(oodb.PolicyNoLimit)
	fmt.Println("netlist walk of 200 cells x 10 nets, 400 traversals, 16 buffer frames")
	fmt.Printf("  No_Cluster: %6d physical reads during walks (hit ratio %.2f, %d pages)\n",
		readsN, stN.HitRatio, dbN.NumPages())
	fmt.Printf("  No_limit:   %6d physical reads during walks (hit ratio %.2f, %d pages, splits=%d, moves=%d)\n",
		readsC, stC.HitRatio, dbC.NumPages(), stC.Splits, stC.ClusterMoves)
	fmt.Printf("  clustering reduces simulator I/O by %.1fx\n", float64(readsN)/float64(readsC))
	// Output:
	// netlist walk of 200 cells x 10 nets, 400 traversals, 16 buffer frames
	//   No_Cluster:  18764 physical reads during walks (hit ratio 0.33, 213 pages)
	//   No_limit:      757 physical reads during walks (hit ratio 0.69, 297 pages, splits=88, moves=0)
	//   clustering reduces simulator I/O by 24.8x
}

// browse builds the design browser's store: 400 designs in four
// representations of 1100 bytes each, so a correspondence group spans two
// pages. It then opens a design and flips through its representations 600
// times, 75 % of them on the 15 designs under review. Every tenth browse a
// batch tool sweeps 30 cold designs (Section 3.5's whole-design scan). It
// returns the demand reads the browser waited on, the total reads including
// background prefetch, and the overall hit ratio.
func browse(repl oodb.Replacement, prefetch oodb.PrefetchPolicy, hint bool) (demand, total int, hit float64) {
	const nDesigns, nReps, nBrowses, nHot = 400, 4, 600, 15
	db := must(oodb.Open(oodb.Options{
		BufferFrames: 48,
		Replacement:  repl,
		Cluster:      oodb.PolicyNoLimit,
		Split:        oodb.LinearSplit,
		Prefetch:     prefetch,
	}))
	if hint {
		db.RegisterHint(oodb.Correspondence)
	}
	var f oodb.FreqProfile
	f[oodb.Correspondence] = 0.6
	f[oodb.ConfigDown] = 0.2
	// Every design's layout is created first, then every netlist, and so
	// on, so creation-order placement scatters the correspondence groups.
	roots := make([][]oodb.ObjectID, nDesigns)
	for _, rep := range []string{"layout", "netlist", "transistor", "symbolic"} {
		t := must(db.DefineType(rep, oodb.NilType, 1100, f, nil))
		for d := range roots {
			o := must(db.CreateObject(fmt.Sprintf("D%d", d), 1, t))
			for _, p := range roots[d] {
				check(db.Correspond(p, o.ID))
			}
			roots[d] = append(roots[d], o.ID)
		}
	}

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nBrowses; i++ {
		d := rng.Intn(nDesigns)
		if rng.Float64() < 0.75 {
			d = rng.Intn(nHot)
		}
		st0 := db.Stats()
		must(db.GetClosure(roots[d][rng.Intn(nReps)], oodb.Correspondence))
		st1 := db.Stats()
		total += st1.PageReads - st0.PageReads
		demand += (st1.PageReads - st0.PageReads) - (st1.PrefetchReads - st0.PrefetchReads)
		if i%10 == 9 {
			for j := 0; j < 30; j++ {
				must(db.Get(roots[nHot+(i*7+j)%(nDesigns-nHot)][0]))
			}
		}
	}
	return demand, total, db.Stats().HitRatio
}

// Example_designBrowser is the paper's design browser: a designer reviews
// layout against netlist against schematic, so the "access by
// correspondence" hint, context-sensitive replacement (which a cold scan
// cannot flush) and prefetching within the database cut the reads the
// browser waits on.
func Example_designBrowser() {
	fmt.Println("browsing 400 designs x 4 representations, 600 browse operations")
	for _, v := range []struct {
		name     string
		repl     oodb.Replacement
		prefetch oodb.PrefetchPolicy
		hint     bool
	}{
		{"LRU, no prefetch, no hint", oodb.ReplLRU, oodb.NoPrefetch, false},
		{"LRU, prefetch in DB, hint", oodb.ReplLRU, oodb.PrefetchWithinDB, true},
		{"Context, no prefetch, hint", oodb.ReplContext, oodb.NoPrefetch, true},
		{"Context, prefetch in DB, hint", oodb.ReplContext, oodb.PrefetchWithinDB, true},
	} {
		demand, total, hit := browse(v.repl, v.prefetch, v.hint)
		fmt.Printf("  %-30s %6d demand reads, %6d total during browses (overall hit ratio %.2f)\n",
			v.name, demand, total, hit)
	}
	// Output:
	// browsing 400 designs x 4 representations, 600 browse operations
	//   LRU, no prefetch, no hint         828 demand reads,    828 total during browses (overall hit ratio 0.42)
	//   LRU, prefetch in DB, hint         525 demand reads,   1050 total during browses (overall hit ratio 0.46)
	//   Context, no prefetch, hint        488 demand reads,    488 total during browses (overall hit ratio 0.48)
	//   Context, prefetch in DB, hint     435 demand reads,    874 total during browses (overall hit ratio 0.48)
}

// Example_versionHistory shows instance-to-instance inheritance along a
// version history. A descendant inherits its ancestor's correspondences,
// and the cost formulas implement the large, rarely read "mask-data"
// attribute by reference, which shrinks the descendant and pulls the
// versions of one design onto one page.
func Example_versionHistory() {
	db := must(oodb.Open(oodb.Options{
		BufferFrames: 32,
		Replacement:  oodb.ReplContext,
		Cluster:      oodb.PolicyNoLimit,
		Split:        oodb.LinearSplit,
	}))
	var f oodb.FreqProfile
	f[oodb.VersionAncestor] = 0.5
	f[oodb.ConfigDown] = 0.2
	layout := must(db.DefineType("layout", oodb.NilType, 180, f, []oodb.AttrDef{
		{Name: "props", Size: 24, AccessFreq: 0.9},
		{Name: "mask-data", Size: 1024, AccessFreq: 0.02},
	}))
	var nf oodb.FreqProfile
	nf[oodb.Correspondence] = 0.6
	netlist := must(db.DefineType("netlist", oodb.NilType, 150, nf, nil))

	alu := must(db.CreateObject("ALU", 1, layout))
	aluNet := must(db.CreateObject("ALU", 3, netlist))
	check(db.Correspond(alu.ID, aluNet.ID))
	fmt.Printf("%s: size=%d bytes (all attributes by copy)\n", db.Triple(alu.ID), alu.Size)

	cur := alu
	for v := 0; v < 4; v++ {
		next := must(db.Derive(cur.ID))
		fmt.Printf("%s: size=%d bytes, inherits from %s, page %d (ancestor on %d), correspondences %d\n",
			db.Triple(next.ID), next.Size, db.Triple(next.InheritsFrom),
			db.PageOf(next.ID), db.PageOf(cur.ID), len(next.Correspondents()))
		cur = next
	}
	if len(cur.Correspondents()) == 1 && cur.Correspondents()[0] == aluNet.ID {
		fmt.Println("instance-to-instance inheritance of correspondences: OK")
	}

	// Reading a version prefetch-boosts its history, so the walk back to
	// the first version finds every page resident.
	before := db.Stats().PageReads
	for id := cur.ID; id != oodb.NilObject; id = must(db.Get(id)).Ancestor {
	}
	fmt.Printf("walking the 5-version history cost %d physical reads\n", db.Stats().PageReads-before)
	// Output:
	// ALU[1].layout: size=1228 bytes (all attributes by copy)
	// ALU[2].layout: size=204 bytes, inherits from ALU[1].layout, page 1 (ancestor on 1), correspondences 1
	// ALU[3].layout: size=204 bytes, inherits from ALU[2].layout, page 1 (ancestor on 1), correspondences 1
	// ALU[4].layout: size=204 bytes, inherits from ALU[3].layout, page 1 (ancestor on 1), correspondences 1
	// ALU[5].layout: size=204 bytes, inherits from ALU[4].layout, page 1 (ancestor on 1), correspondences 1
	// instance-to-instance inheritance of correspondences: OK
	// walking the 5-version history cost 0 physical reads
}

// octDesign is an OCT-style design (Figure 3.1's facets, nets, terminals
// and paths) built inside the store, as a shared OCT database accretes it:
// facets first, then nets round-robin across facets, then terminals.
type octDesign struct {
	db                  *oodb.DB
	facets, nets, terms []oodb.ObjectID
}

func buildOCT(recommended bool) *octDesign {
	opt := oodb.Options{BufferFrames: 24}
	if recommended {
		opt.Cluster = oodb.PolicyNoLimit
		opt.Split = oodb.LinearSplit
		opt.Replacement = oodb.ReplContext
		opt.Prefetch = oodb.PrefetchWithinDB
	}
	d := &octDesign{db: must(oodb.Open(opt))}
	var facetF, netF, termF oodb.FreqProfile
	facetF[oodb.ConfigDown] = 0.7
	netF[oodb.ConfigDown] = 0.5
	netF[oodb.ConfigUp] = 0.2
	termF[oodb.ConfigUp] = 0.6
	facetT := must(d.db.DefineType("facet", oodb.NilType, 300, facetF, nil))
	netT := must(d.db.DefineType("net", oodb.NilType, 150, netF, nil))
	termT := must(d.db.DefineType("terminal", oodb.NilType, 90, termF, nil))
	pathT := must(d.db.DefineType("path", oodb.NilType, 80, termF, nil))

	rng := rand.New(rand.NewSource(3))
	for f := 0; f < 60; f++ {
		d.facets = append(d.facets, must(d.db.CreateObject(fmt.Sprintf("facet%d", f), 1, facetT)).ID)
	}
	for j := 0; j < 20; j++ {
		for _, f := range d.facets {
			d.nets = append(d.nets, must(d.db.CreateAttached(fmt.Sprintf("net%d", j), 1, netT, f)).ID)
		}
	}
	for _, n := range d.nets {
		for t, fan := 0, 1+rng.Intn(4); t < fan; t++ {
			term := must(d.db.CreateAttached("t", t, termT, n))
			d.terms = append(d.terms, term.ID)
			if t%2 == 0 {
				must(d.db.CreateAttached("p", t, pathT, term.ID))
			}
		}
	}
	return d
}

// replay drives the store with 1500 operations of a tool's mix: writes
// attach new terminals, structure reads expand a net's or a facet's
// closure, simple reads fetch one terminal. It returns demand reads per
// 1000 logical operations.
func (d *octDesign) replay(p oct.ToolProfile) float64 {
	rng := rand.New(rand.NewSource(17))
	termT := must(d.db.DefineType(p.Name+"-term", oodb.NilType, 90, oodb.FreqProfile{}, nil))
	st0 := d.db.Stats()
	logical := 0
	for i := 0; i < 1500; i++ {
		switch {
		case rng.Float64() < 1/(1+p.RW):
			must(d.db.CreateAttached("w", i, termT, d.nets[rng.Intn(len(d.nets))]))
			logical++
		case rng.Float64() < p.StructureReadShare:
			root := d.nets[rng.Intn(len(d.nets))]
			if rng.Float64() < p.HighShare {
				root = d.facets[rng.Intn(len(d.facets))]
			}
			logical += 1 + len(must(d.db.GetClosure(root, oodb.ConfigDown)))
		default:
			must(d.db.Get(d.terms[rng.Intn(len(d.terms))]))
			logical++
		}
	}
	st1 := d.db.Stats()
	demand := (st1.PageReads - st0.PageReads) - (st1.PrefetchReads - st0.PrefetchReads)
	return float64(demand) / float64(logical) * 1000
}

// Example_octReplay closes the loop between the paper's two halves: it
// replays each tool Section 3 instrumented against an OCT-style design in
// the store, under a conventional configuration (no clustering, LRU) and
// the paper's recommended one (unlimited clustering, context-sensitive
// replacement, prefetch within the database). Read-heavy, structure-heavy
// vem gains most; write-heavy atlas least.
func Example_octReplay() {
	fmt.Println("replaying the instrumented OCT toolset against the object store")
	fmt.Println("(60 facets x 20 nets, 1500 ops per tool, 24 buffer frames)")
	fmt.Printf("%-12s %22s %22s %8s\n", "tool", "conventional reads/kop", "recommended reads/kop", "gain")
	for _, p := range oct.Toolset() {
		a, b := buildOCT(false).replay(p), buildOCT(true).replay(p)
		fmt.Printf("%-12s %22.1f %22.1f %7.1fx\n", p.Name, a, b, a/b)
	}
	// Output:
	// replaying the instrumented OCT toolset against the object store
	// (60 facets x 20 nets, 1500 ops per tool, 24 buffer frames)
	// tool         conventional reads/kop  recommended reads/kop     gain
	// vem                           590.7                   78.3     7.5x
	// wolfe                         647.2                  168.8     3.8x
	// sparcs                        590.4                  243.6     2.4x
	// misII                         593.8                  302.7     2.0x
	// bdsim                         557.1                  236.8     2.4x
	// atlas                         662.3                  519.3     1.3x
	// cds                           606.6                  364.3     1.7x
	// cpre                          594.7                  316.6     1.9x
	// pgcurrent                     636.6                  431.0     1.5x
	// mosaico                       588.0                  242.6     2.4x
}
