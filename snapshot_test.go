package oodb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"testing"

	"oodb/internal/model"
)

// buildSnapshotFixture creates a database with every relationship kind and
// both attribute implementations exercised.
func buildSnapshotFixture(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{BufferFrames: 32, Cluster: PolicyNoLimit, Split: LinearSplit})
	if err != nil {
		t.Fatal(err)
	}
	rootT, leafT := schema(t, db)
	netT, err := db.DefineType("netlist", NilType, 150, FreqProfile{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r, err := db.CreateObject(fmt.Sprintf("R%d", i), 1, rootT)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 4; j++ {
			if _, err := db.CreateAttached(fmt.Sprintf("L%d_%d", i, j), 1, leafT, r.ID); err != nil {
				t.Fatal(err)
			}
		}
		n, err := db.CreateObject(fmt.Sprintf("R%d", i), 1, netT)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Correspond(r.ID, n.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Derive(r.ID); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	db2, err := Load(&buf, Options{BufferFrames: 32, Cluster: PolicyNoLimit})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if db2.NumObjects() != db.NumObjects() {
		t.Fatalf("objects: %d vs %d", db2.NumObjects(), db.NumObjects())
	}
	if db2.NumPages() != db.NumPages() {
		t.Fatalf("pages: %d vs %d", db2.NumPages(), db.NumPages())
	}
	// Identity, relationships, attribute implementations, profiles and
	// physical placement survive.
	byRef := 0
	for id := ObjectID(1); int(id) <= db.NumObjects(); id++ {
		a := db.graph.Object(id)
		b := db2.graph.Object(id)
		if db.Triple(id) != db2.Triple(id) {
			t.Fatalf("object %d identity: %q vs %q", id, db.Triple(id), db2.Triple(id))
		}
		if a.Size != b.Size || a.Ancestor != b.Ancestor || a.InheritsFrom != b.InheritsFrom {
			t.Fatalf("object %d state diverged", id)
		}
		for k := RelKind(0); k < model.NumRelKinds; k++ {
			if !slices.Equal(a.Neighbors(k), b.Neighbors(k)) {
				t.Fatalf("object %d %v: %v vs %v", id, k, a.Neighbors(k), b.Neighbors(k))
			}
		}
		if db.PageOf(id) != db2.PageOf(id) {
			t.Fatalf("object %d placement: page %d vs %d", id, db.PageOf(id), db2.PageOf(id))
		}
		if a.Freq() != b.Freq() {
			t.Fatalf("object %d profile: %v vs %v", id, a.Freq(), b.Freq())
		}
		for i := 0; i < model.MaxInheritedAttrs; i++ {
			if a.AttrImpl(i) != b.AttrImpl(i) {
				t.Fatalf("object %d attribute %d: %v vs %v", id, i, a.AttrImpl(i), b.AttrImpl(i))
			}
			if a.AttrImpl(i) == model.ByReference {
				byRef++
			}
		}
	}
	if byRef == 0 {
		t.Fatal("fixture implements no attribute by reference")
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reloaded database is fully usable.
	o, err := db2.GetClosure(ObjectID(1), ConfigDown)
	if err != nil || len(o) == 0 {
		t.Fatalf("reloaded navigation: %v %v", o, err)
	}
	if _, err := db2.Derive(ObjectID(1)); err != nil {
		t.Fatalf("reloaded derive: %v", err)
	}
}

// TestSnapshotKeepsNames round-trips named and unnamed objects: a name is
// restored as saved, and an unnamed object stays unnamed.
func TestSnapshotKeepsNames(t *testing.T) {
	db := buildSnapshotFixture(t)
	anonT, err := db.DefineType("anon", NilType, 100, FreqProfile{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := db.CreateObject("", 1, anonT)
	if err != nil {
		t.Fatal(err)
	}
	anonNext, err := db.Derive(anon.ID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Options{BufferFrames: 32, Cluster: PolicyNoLimit})
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for id := ObjectID(1); int(id) <= db.NumObjects(); id++ {
		if db.graph.Name(id) != db2.graph.Name(id) || db.Triple(id) != db2.Triple(id) {
			t.Fatalf("object %d: %q %q saved, %q %q loaded", id, db.graph.Name(id), db.Triple(id), db2.graph.Name(id), db2.Triple(id))
		}
		if db.graph.Name(id) != "" {
			named++
		}
	}
	if named != db.NumObjects()-2 {
		t.Fatalf("%d of %d objects named, want all but two", named, db.NumObjects())
	}
	want := fmt.Sprintf("#%d[2].anon", anonNext.ID)
	if db2.graph.Name(anonNext.ID) != "" || db2.Triple(anonNext.ID) != want {
		t.Fatalf("unnamed version loaded as %q, want %q", db2.Triple(anonNext.ID), want)
	}
}

func TestSnapshotPageSizeMismatch(t *testing.T) {
	db := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Options{PageSize: 8192}); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
}

func TestSnapshotGarbageRejected(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot")), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// corruptSnapshot re-encodes a valid snapshot after mutating its decoded
// structure, producing well-formed gob with hostile contents.
func corruptSnapshot(t *testing.T, mutate func(*snapshot)) []byte {
	t.Helper()
	db := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mutate(&snap)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSnapshotLoadTypedErrors pins Load's failure taxonomy: damaged or
// hostile bytes surface ErrCorruptSnapshot, an unknown format version
// surfaces ErrSnapshotVersion — both matchable with errors.Is so callers
// can distinguish "re-save needed" from "wrong tool version".
func TestSnapshotLoadTypedErrors(t *testing.T) {
	db := buildSnapshotFixture(t)
	var good bytes.Buffer
	if err := db.Save(&good); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorruptSnapshot},
		{"garbage", []byte("not a snapshot"), ErrCorruptSnapshot},
		{"truncated", good.Bytes()[:good.Len()/3], ErrCorruptSnapshot},
		{"future-version", corruptSnapshot(t, func(s *snapshot) { s.Format = snapshotVersion + 7 }), ErrSnapshotVersion},
		{"zero-version", corruptSnapshot(t, func(s *snapshot) { s.Format = 0 }), ErrSnapshotVersion},
		{"negative-pages", corruptSnapshot(t, func(s *snapshot) { s.NumPages = -1 }), ErrCorruptSnapshot},
		{"zero-page-size", corruptSnapshot(t, func(s *snapshot) { s.PageSize = 0 }), ErrCorruptSnapshot},
		{"placement-beyond-pages", corruptSnapshot(t, func(s *snapshot) { s.Objects[0].Page = PageID(s.NumPages + 5) }), ErrCorruptSnapshot},
		{"attr-impls-short", corruptSnapshot(t, func(s *snapshot) {
			o := withAttrImpls(t, s)
			o.AttrImpls = o.AttrImpls[:len(o.AttrImpls)-1]
		}), ErrCorruptSnapshot},
		{"attr-impls-long", corruptSnapshot(t, func(s *snapshot) {
			o := withAttrImpls(t, s)
			o.AttrImpls = append(o.AttrImpls, model.ByCopy)
		}), ErrCorruptSnapshot},
		{"attr-impls-missing", corruptSnapshot(t, func(s *snapshot) { withAttrImpls(t, s).AttrImpls = nil }), ErrCorruptSnapshot},
		{"attr-impl-unknown", corruptSnapshot(t, func(s *snapshot) { withAttrImpls(t, s).AttrImpls[0] = 9 }), ErrCorruptSnapshot},
		{"chain-wider-than-mask", corruptSnapshot(t, func(s *snapshot) {
			s.Types[0].Attrs = make([]AttrDef, model.MaxInheritedAttrs+1)
		}), ErrCorruptSnapshot},
		{"size-beyond-int32", corruptSnapshot(t, func(s *snapshot) { s.Objects[0].Size = 1 << 40 }), ErrCorruptSnapshot},
		{"version-beyond-int32", corruptSnapshot(t, func(s *snapshot) { s.Objects[0].Version = -1 << 40 }), ErrCorruptSnapshot},
		{"dangling-component", corruptSnapshot(t, func(s *snapshot) {
			s.Objects[0].Components = append(s.Objects[0].Components, 999)
		}), ErrCorruptSnapshot},
		{"one-sided-correspondence", corruptSnapshot(t, func(s *snapshot) { s.Objects[0].Correspondents = nil }), ErrCorruptSnapshot},
		{"descendant-without-ancestor", corruptSnapshot(t, func(s *snapshot) {
			for i := range s.Objects {
				s.Objects[i].Ancestor = NilObject
			}
		}), ErrCorruptSnapshot},
		{"too-many-links", corruptSnapshot(t, func(s *snapshot) {
			s.Objects[0].Composites = make([]ObjectID, model.MaxLinks+1)
		}), ErrCorruptSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data), Options{})
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestSnapshotBrokenRelationsRejected is the regression test for a loader
// that restored relationship lists unchecked: a composite listing a live
// component and a missing object 999, plus a correspondence stored on one
// side only, used to load and pass CheckInvariants; deleting the component
// then left a dangling correspondent that made Checkin fail.
func TestSnapshotBrokenRelationsRejected(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ty, err := db.DefineType("t", NilType, 100, FreqProfile{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.CreateObject("a", 1, ty)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateAttached("b", 1, ty, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for i := range snap.Objects {
		if so := &snap.Objects[i]; so.ID == a.ID {
			so.Components = []ObjectID{b.ID, 999}
			so.Correspondents = []ObjectID{b.ID}
		}
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if db2, err := Load(&out, Options{}); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("broken relationship graph: got %v, want ErrCorruptSnapshot", err)
	} else if db2 != nil {
		t.Fatal("Load returned a database with an error")
	}
}

// withAttrImpls returns the first snapshot object whose type inherits
// attributes.
func withAttrImpls(t *testing.T, s *snapshot) *snapObject {
	t.Helper()
	for i := range s.Objects {
		if len(s.Objects[i].AttrImpls) > 0 {
			return &s.Objects[i]
		}
	}
	t.Fatal("fixture has no object with inherited attributes")
	return nil
}

func TestSnapshotEmptyDB(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumObjects() != 0 || db2.NumPages() != 0 {
		t.Fatal("empty snapshot not empty")
	}
}
