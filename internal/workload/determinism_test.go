package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"oodb/internal/model"
)

// TestGeneratorDeterminism asserts the workload contract every same-seed
// gate depends on: two fresh generators over the same database, with the same
// parameters and the same seed, emit the identical transaction stream.
func TestGeneratorDeterminism(t *testing.T) {
	spec := DefaultDBSpec(MedDensity, 1<<20)
	db, err := Generate(spec, 4096)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(MedDensity, 10)

	const n = 2000
	streams := make([][]Op, 2)
	for i := range streams {
		gen := NewGenerator(db, p, rand.New(rand.NewSource(42)))
		streams[i] = make([]Op, 0, n)
		for j := 0; j < n; j++ {
			txn := gen.Next()
			txn.Targets = append([]model.ObjectID(nil), txn.Targets...)
			streams[i] = append(streams[i], txn)
		}
	}
	for j := 0; j < n; j++ {
		if !reflect.DeepEqual(streams[0][j], streams[1][j]) {
			t.Fatalf("transaction %d diverged:\n%+v\n%+v", j, streams[0][j], streams[1][j])
		}
	}
}
