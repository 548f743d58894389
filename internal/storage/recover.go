package storage

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"oodb/internal/model"
)

// Crash recovery replays the write-ahead log's valid prefix and applies
// the mutation records of committed transactions, rebuilding the
// object->page placement independently of any object graph. The replayed
// state is cross-checked against the digest carried by the last commit
// record — an end-to-end proof that recovery reproduced exactly the state
// the log committed.

// RecoveredState summarizes a WAL replay: what the log held, what was
// applied, and the rebuilt placement state.
type RecoveredState struct {
	PageSize  int // page size recorded in the WAL header
	Records   int // intact records in the log's valid prefix
	Committed int // committed run transactions (bootstrap excluded)
	Applied   int // mutation records applied (their transaction committed)
	Skipped   int // mutation records skipped (uncommitted or aborted)

	Objects int    // objects placed after replay
	Pages   int    // highest page ID referenced by applied records
	Digest  uint64 // placement digest recomputed during replay

	// CommitDigest is the digest carried by the last commit or checkpoint
	// record in the prefix; replay verifies Digest matches it.
	CommitDigest uint64
}

// recoveredObject is one placement rebuilt by replay.
type recoveredObject struct {
	page PageID
	size int
}

// RecoverWAL replays a WAL byte stream. Replay is two passes over the
// valid prefix: the first indexes each transaction's last commit record,
// the second applies mutation record #i iff its transaction's last commit
// lies after i — so records written after a transaction's commit (a reused
// WAL transaction ID) are never wrongly applied, and aborted or in-flight
// transactions contribute nothing. Structural violations (double place,
// remove of an absent object, page overflow, digest mismatch) are
// reported as errors, never panics.
func RecoverWAL(r io.Reader) (*RecoveredState, error) {
	var records []WALRecord
	n, pageSize, err := ReplayWAL(r, func(rec WALRecord) error {
		records = append(records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st := &RecoveredState{PageSize: pageSize, Records: n}

	// Pass 1: the last commit index per transaction, and the digest of the
	// last commit/checkpoint record in the prefix.
	commitIdx := make(map[uint64]int)
	lastDigestIdx := -1
	for i, r := range records {
		switch r.Kind {
		case WALCommit:
			commitIdx[r.Txn] = i
			lastDigestIdx = i
			if r.Txn != 0 {
				st.Committed++
			}
		case WALCheckpoint:
			lastDigestIdx = i
		}
	}

	// Pass 2: apply committed mutations in log order.
	placed := make(map[model.ObjectID]recoveredObject)
	used := make(map[PageID]int)
	for i, r := range records {
		switch r.Kind {
		case WALPlace, WALRemove, WALMove:
		default:
			continue
		}
		if ci, ok := commitIdx[r.Txn]; !ok || ci < i {
			st.Skipped++
			continue
		}
		if err := applyRecovered(st, placed, used, r); err != nil {
			return nil, fmt.Errorf("storage: WAL replay record %d: %w", i, err)
		}
		st.Applied++
	}
	st.Objects = len(placed)

	if lastDigestIdx >= 0 {
		st.CommitDigest = records[lastDigestIdx].Digest
	}
	if st.Digest != st.CommitDigest {
		return nil, fmt.Errorf("storage: WAL replay digest %016x does not match committed digest %016x",
			st.Digest, st.CommitDigest)
	}
	return st, nil
}

// applyRecovered applies one committed mutation record to the rebuilt
// placement state, validating the structural invariants the live manager
// enforces.
func applyRecovered(st *RecoveredState, placed map[model.ObjectID]recoveredObject, used map[PageID]int, r WALRecord) error {
	switch r.Kind {
	case WALPlace:
		if r.Page == NilPage {
			return fmt.Errorf("place of object %d on the nil page", r.Obj)
		}
		if prev, dup := placed[r.Obj]; dup {
			return fmt.Errorf("object %d placed on page %d while on page %d", r.Obj, r.Page, prev.page)
		}
		if used[r.Page]+r.Size > st.PageSize {
			return fmt.Errorf("page %d overfull (%d + %d > %d)", r.Page, used[r.Page], r.Size, st.PageSize)
		}
		placed[r.Obj] = recoveredObject{page: r.Page, size: r.Size}
		used[r.Page] += r.Size
		st.Digest ^= PlacementHash(r.Obj, r.Page)
		if int(r.Page) > st.Pages {
			st.Pages = int(r.Page)
		}
	case WALRemove:
		cur, ok := placed[r.Obj]
		if !ok || cur.page != r.Page {
			return fmt.Errorf("remove of object %d from page %d, but it is not there", r.Obj, r.Page)
		}
		delete(placed, r.Obj)
		used[r.Page] -= cur.size
		if used[r.Page] < 0 {
			used[r.Page] = 0
		}
		st.Digest ^= PlacementHash(r.Obj, r.Page)
	case WALMove:
		cur, ok := placed[r.Obj]
		if !ok || cur.page != r.Page {
			return fmt.Errorf("move of object %d from page %d, but it is not there", r.Obj, r.Page)
		}
		if r.To == NilPage {
			return fmt.Errorf("move of object %d to the nil page", r.Obj)
		}
		if used[r.To]+cur.size > st.PageSize {
			return fmt.Errorf("page %d overfull (%d + %d > %d)", r.To, used[r.To], cur.size, st.PageSize)
		}
		delete(placed, r.Obj)
		used[r.Page] -= cur.size
		if used[r.Page] < 0 {
			used[r.Page] = 0
		}
		st.Digest ^= PlacementHash(r.Obj, r.Page)
		placed[r.Obj] = recoveredObject{page: r.To, size: cur.size}
		used[r.To] += cur.size
		st.Digest ^= PlacementHash(r.Obj, r.To)
		if int(r.To) > st.Pages {
			st.Pages = int(r.To)
		}
	}
	return nil
}

// RecoverDir replays the WAL in a file-backend data directory (see
// RecoverWAL). The second argument is ignored; bench/run.go still passes
// one (ROADMAP 4(a)).
func RecoverDir(dir string, _ any) (*RecoveredState, error) {
	f, err := os.Open(filepath.Join(dir, WALFileName))
	if err != nil {
		return nil, err
	}
	defer f.Close() // errscan:ok read-only handle

	return RecoverWAL(bufio.NewReaderSize(f, 1<<16))
}

// WALDigestAt returns the digest carried by the k-th commit record
// (0-indexed) in dir's WAL: k=0 is the construction bootstrap commit, and
// run commits follow in log order. It lets a crash-recovery check compare
// an interrupted run's recovered digest against the same commit point of
// an uninterrupted reference run.
func WALDigestAt(dir string, k int) (uint64, error) {
	f, err := os.Open(filepath.Join(dir, WALFileName))
	if err != nil {
		return 0, err
	}
	defer f.Close() // errscan:ok read-only handle

	var digest uint64
	seen := 0
	found := false
	_, _, err = ReplayWAL(bufio.NewReaderSize(f, 1<<16), func(rec WALRecord) error {
		if rec.Kind == WALCommit {
			if seen == k {
				digest, found = rec.Digest, true
			}
			seen++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("storage: WAL in %s holds %d commit records, wanted index %d", dir, seen, k)
	}
	return digest, nil
}
