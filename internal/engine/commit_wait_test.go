package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"oodb/internal/model"
	"oodb/internal/storage"
	"oodb/internal/workload"
)

// gatedBackend is the file backend with a hook on WaitDurable, registered
// through the public registry like world_test.go's fixtures. The tests that
// set waitGate do not run in parallel with each other.
const gatedBackend = "test-gated-file"

// waitGate, when set, stands in for the gated backend's WaitDurable; it is
// handed the real one.
var waitGate atomic.Pointer[func(wait func() error) error]

type gatedFile struct{ *storage.FileBackend }

func (b gatedFile) WaitDurable() error {
	if gate := waitGate.Load(); gate != nil {
		return (*gate)(b.FileBackend.WaitDurable)
	}
	return b.FileBackend.WaitDurable()
}

func init() {
	storage.RegisterBackend(gatedBackend, func(m *storage.Manager, opt storage.BackendOptions) (storage.Backend, error) {
		fb, err := storage.NewFileBackend(m, opt)
		if err != nil {
			return nil, err
		}
		return gatedFile{fb}, nil
	})
}

// setWaitGate installs gate for the test's duration.
func setWaitGate(t *testing.T, gate func(wait func() error) error) {
	t.Helper()
	waitGate.Store(&gate)
	t.Cleanup(func() { waitGate.Store(nil) })
}

// runOutcome is a concurrent run's result, delivered by startRun.
type runOutcome struct {
	res ConcurrentResults
	err error
}

// startRun runs c in its own goroutine; the channel delivers the outcome.
func startRun(c *Concurrent) <-chan runOutcome {
	done := make(chan runOutcome, 1)
	go func() {
		res, err := c.Run()
		done <- runOutcome{res, err}
	}()
	return done
}

// checkDurableRun checks a finished durable run end to end: the shared
// structures' invariants, placement conservation,
// then Close and a recovery of the data directory that must reach the same
// commit count and placement digest.
func checkDurableRun(t *testing.T, c *Concurrent, res ConcurrentResults) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.ConservationViolations != 0 || res.LiveObjects != res.PlacedObjects {
		t.Errorf("conservation: %d violations, live=%d placed=%d",
			res.ConservationViolations, res.LiveObjects, res.PlacedObjects)
	}
	want := placementDigest(c.store)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.RecoverDir(c.cfg.DataDir, nil) // cross-checks replayed vs in-log digest
	if err != nil {
		t.Fatal(err)
	}
	if int64(rec.Committed) != res.Durability.Committed || rec.Digest != want {
		t.Errorf("recovered %d commits at digest %016x, want %d at %016x",
			rec.Committed, rec.Digest, res.Durability.Committed, want)
	}
}

// scripted is a session's operation source playing a fixed list (the rest
// of workload.Source is the library's null source). start, when non-nil,
// holds the session back until it is closed: SessionLength is the one
// Source call a session makes with nothing held.
type scripted struct {
	callerDriven
	ops   []workload.Op
	start <-chan struct{}
}

func (s *scripted) Next() workload.Op {
	op := s.ops[0]
	s.ops = s.ops[1:]
	return op
}

func (s *scripted) SessionLength() int {
	if s.start != nil {
		<-s.start
	}
	return len(s.ops)
}

// TestCommitWaitOverlap pins what moved out of the structure guard, and
// what stands in for the object locks that are gone: the log's prefix rule.
// Session 0's first transaction is an insert under parent P whose
// WaitDurable parks on a channel. With it parked, session 1 — held back
// until then — runs 100 reads and an insert under the same P, which parks
// too: the second writer of P commits on top of the first's unflushed
// commit. At that point both commit records are in the log, the first
// one first, and neither is flushed; the 100 reads are acknowledged and
// neither write is: no completion counted, no latency sample. Released
// alone, the second writer is acknowledged once its own sync — which covers
// the first commit too — has run, while the first writer stays parked and
// unacknowledged. Nothing here sleeps or polls.
func TestCommitWaitOverlap(t *testing.T) {
	const reads = 100
	cfg := fileConfig(t, octSmall.config(2*(reads+1)), "always")
	cfg.Backend = gatedBackend
	cfg.Warmup = 0
	c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // errscan:ok the success path checks Close; closing twice is a no-op

	parent := c.db.Blocks[0]
	insert := workload.Op{Kind: workload.QInsert, AttachTo: parent, NewType: c.db.Schema.LeafTypes[0]}
	var lookups []workload.Op
	for i := 0; i < reads; i++ {
		lookups = append(lookups, workload.Op{Kind: workload.QSimpleLookup, Target: c.db.Leaves[i%len(c.db.Leaves)]})
	}
	parked := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var appendedAtPark [2]int64 // commit records in the log when each writer parked
	second := &doneAfter{done: make(chan struct{})}
	second.ops = append(lookups[:reads:reads], insert)
	second.start = parked[0]
	c.sessions[0].stack.gen = &scripted{ops: append([]workload.Op{insert}, lookups...)}
	c.sessions[1].stack.gen = second

	var calls atomic.Int32
	setWaitGate(t, func(wait func() error) error {
		n := calls.Add(1) - 1
		appendedAtPark[n] = c.durable.DurableStats().Committed
		close(parked[n])
		<-release[n]
		return wait()
	})
	syncsBefore := c.durable.DurableStats().WALSyncs
	done := startRun(c)

	<-parked[0]
	select {
	case <-parked[1]:
	case <-time.After(10 * time.Second):
		close(release[0]) // let both writers finish, or Run never returns
		close(release[1])
		<-done
		t.Fatal("the second writer of the parent waited on the first writer's durable wait")
	}
	// Both sessions are blocked inside the gate, so their state is stable
	// and ordered before these reads by the channel closes.
	s0, s1 := c.sessions[0], c.sessions[1]
	if got := c.completed.Load(); got != reads {
		t.Errorf("acknowledged %d transactions with both commits unflushed, want the %d reads", got, reads)
	}
	if s0.completed != 0 || s0.hist.N() != 0 {
		t.Errorf("first writer acknowledged while parked: completed=%d latency samples=%d", s0.completed, s0.hist.N())
	}
	if s1.completed != reads || s1.hist.N() != reads {
		t.Errorf("second session: completed=%d latency samples=%d, want its %d reads and not its parked write",
			s1.completed, s1.hist.N(), reads)
	}
	if appendedAtPark != [2]int64{1, 2} {
		t.Errorf("commit records in the log as each writer parked: %v, want [1 2] (the first writer's first)", appendedAtPark)
	}
	st := c.durable.DurableStats()
	if st.Committed != 2 {
		t.Errorf("%d commit records appended, want both writers'", st.Committed)
	}
	if got := st.WALSyncs - syncsBefore; got != 0 {
		t.Errorf("%d syncs before any WaitDurable ran: the append still flushes", got)
	}

	close(release[1])
	<-second.done
	// The second session has acknowledged its last transaction and the first
	// is still parked, so both are ordered before these reads.
	if got := c.durable.DurableStats().WALSyncs - syncsBefore; got < 1 {
		t.Errorf("second writer acknowledged after %d syncs, want its own", got)
	}
	if s1.completed != reads+1 || s1.hist.N() != reads+1 {
		t.Errorf("second session after its flush: completed=%d latency samples=%d, want %d",
			s1.completed, s1.hist.N(), reads+1)
	}
	if s0.completed != 0 || s0.hist.N() != 0 || c.completed.Load() != reads+1 {
		t.Errorf("first writer acknowledged before its own flush: completed=%d latency samples=%d (run %d)",
			s0.completed, s0.hist.N(), c.completed.Load())
	}

	close(release[0])
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	res := out.res
	if res.Completed != 2*(reads+1) || res.Latency.N() != int64(res.Completed) {
		t.Errorf("completed=%d latency samples=%d, want %d of each", res.Completed, res.Latency.N(), 2*(reads+1))
	}
	if res.CommitWait.N() != 2 {
		t.Errorf("commit-wait samples = %d, want one per write", res.CommitWait.N())
	}
	if !strings.Contains(res.String(), "commit-wait p50=") {
		t.Errorf("durable run's summary does not report its commit wait: %s", res)
	}
	if got := res.Durability.WALSyncs - syncsBefore; got != 2 {
		t.Errorf("%d commit syncs, want exactly one per commit", got)
	}
	checkDurableRun(t, c, res)
}

// doneAfter is a scripted source that closes done at its session's second
// SessionLength call: the session makes it with nothing held, after its
// first burst's last transaction has been acknowledged.
type doneAfter struct {
	scripted
	calls int
	done  chan struct{}
}

func (s *doneAfter) SessionLength() int {
	if s.calls++; s.calls == 2 {
		close(s.done)
	}
	return s.scripted.SessionLength()
}

// TestConcurrentReadBesideDurableWait pins the concurrent read rule at the
// one place it differs from a locked read: a read sees every appended
// commit, a write's that is not yet durable too. Session 0 deletes leaf A
// and parks in WaitDurable. Session 1, held back until then, looks A up:
// the lookup completes while the delete is parked and finds A gone. A read
// that waited for the writer's acknowledgment would block behind it, which
// the timeout turns into a failure instead of a hang.
func TestConcurrentReadBesideDurableWait(t *testing.T) {
	cfg := fileConfig(t, octSmall.config(2), "always")
	cfg.Backend = gatedBackend
	cfg.Warmup = 0
	c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // errscan:ok the success path checks Close; closing twice is a no-op

	leaf := model.NilObject // a leaf execDelete removes rather than updates
	for _, id := range c.db.Leaves {
		if o := c.graph.Object(id); len(o.Components()) == 0 && len(o.Descendants()) == 0 {
			leaf = id
			break
		}
	}
	if leaf == model.NilObject {
		t.Fatal("no deletable leaf in the database")
	}
	parked, release := make(chan struct{}), make(chan struct{})
	reader := &doneAfter{done: make(chan struct{})}
	reader.ops = []workload.Op{{Kind: workload.QSimpleLookup, Target: leaf}}
	reader.start = parked
	c.sessions[0].stack.gen = &scripted{ops: []workload.Op{{Kind: workload.QDelete, Target: leaf}}}
	c.sessions[1].stack.gen = reader
	setWaitGate(t, func(wait func() error) error {
		close(parked)
		<-release
		return wait()
	})

	done := startRun(c)

	<-parked
	select {
	case <-reader.done:
	case <-time.After(10 * time.Second):
		close(release) // let the writer finish, or Run never returns
		<-done
		t.Fatal("the lookup of the deleted leaf waited on its parked writer")
	}
	// The writer is parked inside the gate and the reader has finished, so
	// both sessions' state is ordered before these reads by the channels.
	if s0 := c.sessions[0]; s0.completed != 0 {
		t.Errorf("parked writer already acknowledged: completed=%d", s0.completed)
	}
	if s1 := c.sessions[1]; s1.completed != 1 || s1.ops.NotFoundReads != 1 {
		t.Errorf("reader: completed=%d not-found=%d, want its one lookup to find A deleted",
			s1.completed, s1.ops.NotFoundReads)
	}
	if got := c.durable.DurableStats().Committed; got != 1 {
		t.Errorf("%d commit records appended, want the delete's", got)
	}

	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if res := out.res; res.Completed != 2 || res.NotFoundReads != 1 {
		t.Errorf("completed=%d not-found=%d, want 2 and 1", res.Completed, res.NotFoundReads)
	}
	checkDurableRun(t, c, out.res)
}

// A memory-backed run has no commit to wait for and says nothing about one.
func TestCommitWaitAbsentOnMemory(t *testing.T) {
	t.Parallel()
	c, err := NewConcurrent(octSmall.config(200), ConcurrentOptions{Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitWait.N() != 0 || strings.Contains(res.String(), "commit-wait") {
		t.Errorf("memory run reports a commit wait: n=%d %s", res.CommitWait.N(), res)
	}
}

// TestDurableWaitFailureStopsTheRun: a commit whose flush fails is never
// acknowledged, the error is the run's result under every driver, and the
// concurrent driver's other sessions stop at their next loop turn instead
// of running out their quota behind the failure.
func TestDurableWaitFailureStopsTheRun(t *testing.T) {
	const failAt = 3
	failing := func(after func()) func(func() error) error {
		var calls atomic.Int32
		return func(wait func() error) error {
			switch n := calls.Add(1); {
			case n == failAt:
				return errInjected
			case n > failAt:
				after()
			}
			return wait()
		}
	}

	t.Run("serial", func(t *testing.T) {
		cfg := fileConfig(t, octSmall.config(400), "always")
		cfg.Backend = gatedBackend
		setWaitGate(t, failing(func() { t.Error("serial engine committed again after a failed flush") }))
		e := fresh(t, cfg)
		defer e.Close() // errscan:ok test cleanup
		if _, err := e.Run(); !errors.Is(err, errInjected) {
			t.Fatalf("Run returned %v, want the injected fault", err)
		}
		if got := int(e.durable.DurableStats().Committed); got != failAt {
			t.Errorf("%d commits appended, want to stop at the %d-th", got, failAt)
		}
	})

	t.Run("library", func(t *testing.T) {
		cfg := fileConfig(t, DefaultConfig(1), "always")
		cfg.Backend = gatedBackend
		setWaitGate(t, failing(func() {}))
		l, ty := openTestLibrary(t, cfg)
		defer l.Close() // errscan:ok test cleanup
		for i := 1; i <= failAt; i++ {
			o, err := l.graph.NewObject(fmt.Sprintf("o%d", i), 1, ty)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Create(o); (i == failAt) != errors.Is(err, errInjected) {
				t.Fatalf("write %d returned %v", i, err)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		const sessions = 4
		cfg := fileConfig(t, ocbSmall.config(4000), "always")
		cfg.Backend = gatedBackend
		cfg.OCB.ReadWriteRatio = 1
		cfg.Warmup = 0
		c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: sessions})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() // errscan:ok test cleanup
		// Flushes behind the failed one hold until the failure is flagged,
		// which bounds what a fail-stop run can still append: the sessions
		// that did not fail finish at most the transaction they are in.
		setWaitGate(t, failing(func() {
			for !c.failed.Load() {
				runtime.Gosched()
			}
		}))
		if _, err := c.Run(); !errors.Is(err, errInjected) {
			t.Fatalf("Run returned %v, want the injected fault", err)
		}
		if got, max := int(c.durable.DurableStats().Committed), failAt+sessions-1; got > max {
			t.Errorf("%d commits appended, want at most %d: sessions kept committing behind the failure", got, max)
		}
	})
}
