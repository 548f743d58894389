package oodb_test

import (
	"fmt"

	"oodb"
)

// must returns v, panicking on err: an Example has no *testing.T to fail,
// and a panic fails it all the same.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// Example builds the paper's running example — an ALU layout composed of
// cells, with a derived version — on a store using the recommended
// policies, shows that the clustering algorithm co-locates the pieces, and
// reads the configuration back through the buffer pool.
func Example() {
	db := must(oodb.Open(oodb.Options{
		BufferFrames: 64,
		Replacement:  oodb.ReplContext,   // context-sensitive buffering
		Cluster:      oodb.PolicyNoLimit, // run-time clustering, unbounded search
		Split:        oodb.LinearSplit,
	}))

	var layoutFreq oodb.FreqProfile
	layoutFreq[oodb.ConfigDown] = 0.6 // layouts are navigated downward
	layoutFreq[oodb.Correspondence] = 0.2
	layout := must(db.DefineType("layout", oodb.NilType, 256, layoutFreq, nil))
	var cellFreq oodb.FreqProfile
	cellFreq[oodb.ConfigUp] = 0.7
	cell := must(db.DefineType("cell", oodb.NilType, 128, cellFreq, nil))

	alu := must(db.CreateObject("ALU", 4, layout))                       // ALU[4].layout
	carry := must(db.CreateAttached("CARRY-PROPAGATE", 2, cell, alu.ID)) // placed near ALU
	add := must(db.CreateObject("ADD", 1, cell))
	check(db.Attach(alu.ID, add.ID))                      // composed after creation
	alu5 := must(db.Derive(alu.ID))                       // ALU[5].layout, inherits
	comps := must(db.GetClosure(alu.ID, oodb.ConfigDown)) // navigate, buffered

	fmt.Println(db.Triple(alu.ID), "->", db.Triple(alu5.ID))
	fmt.Println("co-located:", db.PageOf(alu.ID) == db.PageOf(carry.ID))
	for _, c := range comps {
		fmt.Println("component:", db.Triple(c.ID))
	}
	st := db.Stats() // modeled physical I/O, hit ratio, moves, splits
	fmt.Printf("logical reads=%d page reads=%d hit ratio=%.2f\n", st.LogicalReads, st.PageReads, st.HitRatio)
	check(db.CheckInvariants())
	// Output:
	// ALU[4].layout -> ALU[5].layout
	// co-located: true
	// component: CARRY-PROPAGATE[2].cell
	// component: ADD[1].cell
	// logical reads=3 page reads=0 hit ratio=1.00
}

// ExampleDB_Derive demonstrates instance-to-instance inheritance: a derived
// version inherits its ancestor's correspondence relationships by default,
// exactly the paper's ALU example.
func ExampleDB_Derive() {
	db, _ := oodb.Open(oodb.Options{Cluster: oodb.PolicyNoLimit})
	layout, _ := db.DefineType("layout", oodb.NilType, 200, oodb.FreqProfile{}, nil)
	netlist, _ := db.DefineType("netlist", oodb.NilType, 200, oodb.FreqProfile{}, nil)

	alu2, _ := db.CreateObject("ALU", 2, layout)
	alu3n, _ := db.CreateObject("ALU", 3, netlist)
	db.Correspond(alu2.ID, alu3n.ID) //nolint:errcheck

	descendant, _ := db.Derive(alu2.ID)
	fmt.Println(db.Triple(descendant.ID))
	fmt.Println("inherited correspondences:", len(descendant.Correspondents()))
	// Output:
	// ALU[3].layout
	// inherited correspondences: 1
}

// ExampleDB_Checkout materializes a configuration hierarchy.
func ExampleDB_Checkout() {
	db, _ := oodb.Open(oodb.Options{Cluster: oodb.PolicyNoLimit})
	var f oodb.FreqProfile
	f[oodb.ConfigDown] = 0.5
	ty, _ := db.DefineType("module", oodb.NilType, 150, f, nil)

	root, _ := db.CreateObject("DATAPATH", 1, ty)
	for i := 0; i < 3; i++ {
		child, _ := db.CreateAttached(fmt.Sprintf("U%d", i), 1, ty, root.ID)
		db.CreateAttached(fmt.Sprintf("U%d.0", i), 1, ty, child.ID) //nolint:errcheck
	}
	objs, _ := db.Checkout(root.ID)
	fmt.Println("hierarchy size:", len(objs))
	// Output:
	// hierarchy size: 7
}

// ExampleRunSimulation runs a tiny instance of the paper's ten-user
// simulation model.
func ExampleRunSimulation() {
	cfg := oodb.DefaultSimConfig(0.01)
	cfg.Transactions = 200
	res := must(oodb.RunSimulation(cfg))
	fmt.Println("completed:", res.Completed >= 200)
	fmt.Println("measured response:", res.MeanResponse > 0)
	// Output:
	// completed: true
	// measured response: true
}
