package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"oodb/internal/model"
	"oodb/internal/workload"
)

func randomTxns(n int, seed int64) []workload.Op {
	rng := rand.New(rand.NewSource(seed))
	txns := make([]workload.Op, n)
	for i := range txns {
		txns[i] = workload.Op{
			Kind:     workload.QueryKind(rng.Intn(int(workload.NumQueryKinds))),
			Target:   model.ObjectID(rng.Intn(1 << 20)),
			AttachTo: model.ObjectID(rng.Intn(1 << 20)),
			NewType:  model.TypeID(rng.Intn(1 << 10)),
		}
		if rng.Intn(4) == 0 {
			scan := make([]model.ObjectID, rng.Intn(20))
			for j := range scan {
				scan[j] = model.ObjectID(rng.Intn(1 << 20))
			}
			txns[i].Targets = scan
		}
	}
	return txns
}

func record(t *testing.T, txns []workload.Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, txn := range txns {
		if err := w.Write(txn); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != len(txns) {
		t.Fatalf("writer count %d, want %d", w.Count(), len(txns))
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	txns := randomTxns(500, 1)
	data := record(t, txns)

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	for i, want := range txns {
		var got workload.Op
		if err := r.Next(&got); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		got.Targets = append([]model.ObjectID(nil), got.Targets...)
		if len(got.Targets) == 0 {
			got.Targets = nil
		}
		if len(want.Targets) == 0 {
			want.Targets = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
	var extra workload.Op
	if err := r.Next(&extra); err != io.EOF {
		t.Fatalf("after last record: %v, want io.EOF", err)
	}
	if r.Count() != len(txns) {
		t.Fatalf("reader count %d, want %d", r.Count(), len(txns))
	}
}

func TestWriterRejectsInvalidKind(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(workload.Op{Kind: workload.NumQueryKinds}); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestReaderRejectsMalformedInput(t *testing.T) {
	good := record(t, randomTxns(10, 2))
	badVersion := append([]byte(nil), good...)
	badVersion[7] = 99
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badKind := append([]byte(nil), good...)
	badKind[8] = 0xFF

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCorrupt},
		{"short-header", good[:4], ErrCorrupt},
		{"bad-magic", badMagic, ErrBadMagic},
		{"bad-version", badVersion, ErrVersion},
		{"bad-kind", badKind, ErrCorrupt},
		{"truncated-record", good[:len(good)-1], ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader(bytes.NewReader(tc.data))
			for err == nil {
				var txn workload.Op
				err = r.Next(&txn)
				if err == io.EOF {
					t.Fatal("malformed trace read to clean EOF")
				}
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestReaderBoundsScanLength(t *testing.T) {
	// Hand-craft a record claiming a scan list far beyond maxScanLen: the
	// reader must refuse before allocating.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(byte(workload.QScan))
	buf.Write([]byte{0, 0, 0})                            // target, attach, newtype
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // scan length ~2^41
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var txn workload.Op
	if err := r.Next(&txn); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized scan length: %v, want ErrCorrupt", err)
	}
}

// TestSteadyStateAllocs guards the recording hot path: writing and reading
// records must not allocate once streams are warm, so recording cannot
// perturb the zero-alloc engine gates.
func TestSteadyStateAllocs(t *testing.T) {
	txns := randomTxns(64, 3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.Write(txns[i%len(txns)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// bufio flushes to bytes.Buffer as it fills; the buffer's growth is the
	// only permitted allocation source.
	if allocs > 1 {
		t.Fatalf("Write allocates %.1f/op", allocs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	data := bytes.NewReader(buf.Bytes())
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	var txn workload.Op
	for j := 0; j < 32; j++ { // warm the scan scratch buffer
		if err := r.Next(&txn); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := r.Next(&txn); err != nil {
			if err == io.EOF {
				data.Seek(8, io.SeekStart)
				r.r.Reset(data)
				return
			}
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f/op", allocs)
	}
}
