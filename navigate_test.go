package oodb

import (
	"fmt"
	"testing"
)

// buildHierarchy: root -> 3 blocks -> 2 leaves each.
func buildHierarchy(t *testing.T) (*DB, ObjectID) {
	t.Helper()
	db := openTest(t, Options{BufferFrames: 32, Cluster: PolicyNoLimit})
	rootT, leafT := schema(t, db)
	r, err := db.CreateObject("ROOT", 1, rootT)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		blk, err := db.CreateAttached(fmt.Sprintf("B%d", b), 1, rootT, r.ID)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 2; l++ {
			if _, err := db.CreateAttached(fmt.Sprintf("B%d_L%d", b, l), 1, leafT, blk.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db, r.ID
}

func TestTraverseBFS(t *testing.T) {
	db, root := buildHierarchy(t)
	var depths []int
	err := db.Traverse(root, []RelKind{ConfigDown}, 10, func(o *Object, d int) bool {
		depths = append(depths, d)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(depths) != 10 { // 1 + 3 + 6
		t.Fatalf("visited %d objects", len(depths))
	}
	for i := 1; i < len(depths); i++ {
		if depths[i] < depths[i-1] {
			t.Fatal("not breadth-first")
		}
	}
	if depths[len(depths)-1] != 2 {
		t.Fatalf("max depth %d", depths[len(depths)-1])
	}
}

func TestTraverseDepthLimitAndStop(t *testing.T) {
	db, root := buildHierarchy(t)
	n := 0
	if err := db.Traverse(root, []RelKind{ConfigDown}, 1, func(*Object, int) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 { // root + 3 blocks
		t.Fatalf("depth-1 visited %d", n)
	}
	n = 0
	if err := db.Traverse(root, []RelKind{ConfigDown}, 10, func(*Object, int) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
	if err := db.Traverse(root, nil, 1, nil); err == nil {
		t.Fatal("nil visit accepted")
	}
}

func TestTraverseCycleSafe(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 8})
	rootT, _ := schema(t, db)
	a, _ := db.CreateObject("A", 1, rootT)
	b, _ := db.CreateObject("B", 1, rootT)
	if err := db.Correspond(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := db.Traverse(a.ID, []RelKind{Correspondence}, 100, func(*Object, int) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("cycle revisited: %d", n)
	}
}

// TestCheckinBranchesShareTriple pins that a triple is not a key: two
// checkins of one version both come back as version 2, and CreateObject
// accepts a triple already in use.
func TestCheckinBranchesShareTriple(t *testing.T) {
	db := openTest(t, Options{BufferFrames: 16, Cluster: PolicyNoLimit})
	rootT, _ := schema(t, db)
	a, err := db.CreateObject("ALU", 1, rootT)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := db.Checkin(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := db.Checkin(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID == b2.ID || db.Triple(b1.ID) != "ALU[2].root" || db.Triple(b2.ID) != "ALU[2].root" {
		t.Fatalf("checkins %d %q and %d %q", b1.ID, db.Triple(b1.ID), b2.ID, db.Triple(b2.ID))
	}
	dup, err := db.CreateObject("ALU", 1, rootT)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID == a.ID || db.Triple(dup.ID) != db.Triple(a.ID) {
		t.Fatalf("repeated CreateObject: ID %d, triple %q", dup.ID, db.Triple(dup.ID))
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckoutCheckin(t *testing.T) {
	db, root := buildHierarchy(t)
	objs, err := db.Checkout(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 10 || objs[0].ID != root {
		t.Fatalf("checkout: %d objects", len(objs))
	}

	_, leafT := ObjectID(0), TypeID(0)
	_ = leafT
	// New component for the next iteration.
	lt := db.TypeOf(objs[len(objs)-1].Type)
	nc, err := db.CreateObject("NEW", 1, lt.ID)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Checkin(root, nc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 || v2.Ancestor != root {
		t.Fatalf("checkin version: %+v", v2)
	}
	// v2 shares the old components and gains the new one.
	if len(v2.Components()) != 4 { // 3 shared blocks + 1 new
		t.Fatalf("v2 components: %d", len(v2.Components()))
	}
	objs2, err := db.Checkout(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs2) != 11 { // v2 + 3 blocks + 6 leaves + NEW
		t.Fatalf("checkout of v2: %d objects", len(objs2))
	}
	if err := db.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
