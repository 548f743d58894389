package oodb

import (
	"bytes"
	"testing"

	"oodb/internal/model"
)

// FuzzParse throws arbitrary strings at every flag parser. The contract:
// never panic, and any accepted value must render to a string the parser
// accepts again (the CLI prints these names back to the user).
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"low-3", "med-5", "high-10", "med5", "HIGH-10",
		"No_Cluster", "Within_Buffer", "2_IO_limit", "10_IO_limit", "No_limit",
		"linear", "greedy", "LRU", "Context", "Random", "clock",
		"none", "buffer", "db", "", "  ", "no_limit\n", "9_IO_limit", "\xff\xfe",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d, err := ParseDensity(s); err == nil {
			if _, err := ParseDensity(d.String()); err != nil {
				t.Fatalf("density %q: name %q does not re-parse", s, d.String())
			}
		}
		if c, err := ParseClusterPolicy(s); err == nil {
			if _, err := ParseClusterPolicy(c.String()); err != nil {
				t.Fatalf("cluster %q: name %q does not re-parse", s, c.String())
			}
		}
		if sp, err := ParseSplitPolicy(s); err == nil {
			if _, err := ParseSplitPolicy(sp.String()); err != nil {
				t.Fatalf("split %q: name %q does not re-parse", s, sp.String())
			}
		}
		if r, err := ParseReplacement(s); err == nil {
			if _, err := ParseReplacement(r.String()); err != nil {
				t.Fatalf("replacement %q: name %q does not re-parse", s, r.String())
			}
		}
		if p, err := ParsePrefetchPolicy(s); err == nil {
			if _, err := ParsePrefetchPolicy(p.String()); err != nil {
				t.Fatalf("prefetch %q: name %q does not re-parse", s, p.String())
			}
		}
	})
}

// FuzzLoadSnapshot feeds arbitrary bytes to the database snapshot loader:
// it must return an error or a database that passes its invariants — never
// panic, never hang, never accept garbage silently. An accepted object reads
// a profile and records no implementation beyond its type's inherited
// attributes.
func FuzzLoadSnapshot(f *testing.F) {
	// Seed with a valid snapshot and a few obvious corruptions.
	db, err := Open(Options{BufferFrames: 16})
	if err != nil {
		f.Fatal(err)
	}
	tID, err := db.DefineType("t", NilType, 100, FreqProfile{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := db.CreateObject("o", 1, tID); err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := db.Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()/2])
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})
	mutated := append([]byte(nil), good.Bytes()...)
	mutated[good.Len()/2] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		db, err := Load(bytes.NewReader(data), Options{})
		if err != nil {
			if db != nil {
				t.Fatal("Load returned a database with an error")
			}
			return
		}
		if err := db.CheckInvariants(); err != nil {
			t.Fatalf("accepted snapshot violates invariants: %v", err)
		}
		db.graph.ForEachObject(func(o *Object) {
			_ = o.Freq()
			for i := len(db.graph.InheritedAttrs(o.Type)); i < model.MaxInheritedAttrs; i++ {
				if o.AttrImpl(i) != model.ByCopy {
					t.Fatalf("object %d implements attribute %d of %d by reference",
						o.ID, i, len(db.graph.InheritedAttrs(o.Type)))
				}
			}
		})
	})
}
