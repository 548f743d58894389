package engine

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/ocb"
	"oodb/internal/storage"
	"oodb/internal/txlog"
)

// Fault-injection fixtures, registered once through the public registries:
// a cluster strategy that fails a chosen PlaceNew after applying it, and a
// file backend that counts its opens and closes and can fail the bootstrap
// commit.
const (
	failingStrategy = "test-failing-affinity"
	countingBackend = "test-counting-file"
)

var (
	errInjected = errors.New("injected fault")

	// placeCountdown arms failingPlacer: the PlaceNew call that takes it to
	// zero fails. Zero or negative = disarmed.
	placeCountdown atomic.Int64
	// atFailure is what the failing PlaceNew saw on entry, before the
	// transaction's first storage mutation: the last good commit.
	atFailure struct {
		digest    uint64
		committed int
	}

	backendOpens, backendCloses atomic.Int64
	failBootstrap               atomic.Bool
)

type failingPlacer struct {
	core.ClusterStrategy
	store storage.Backend
}

func (f *failingPlacer) PlaceNew(o *model.Object) (core.Placement, error) {
	if placeCountdown.Add(-1) != 0 {
		return f.ClusterStrategy.PlaceNew(o)
	}
	if d, ok := f.store.(storage.Durable); ok {
		atFailure.committed = d.Committed()
	}
	atFailure.digest = placementDigest(f.store)
	// Fail with the placement applied (and journaled): a half-done
	// transaction, not a clean refusal.
	if _, err := f.ClusterStrategy.PlaceNew(o); err != nil {
		return core.Placement{}, err
	}
	return core.Placement{}, errInjected
}

// placementDigest reads the object-to-page mapping digest every backend
// inherits from the storage.Manager it wraps.
func placementDigest(b storage.Backend) uint64 {
	return b.(interface{ StateDigest() uint64 }).StateDigest()
}

type countedFile struct{ *storage.FileBackend }

func (b countedFile) Close() error {
	backendCloses.Add(1)
	return b.FileBackend.Close()
}

func (b countedFile) CommitBootstrap() error {
	if failBootstrap.Load() {
		return errInjected
	}
	return b.FileBackend.CommitBootstrap()
}

func init() {
	core.RegisterClusterStrategy(failingStrategy, func(s core.ClusterSeam) core.ClusterStrategy {
		inner, err := core.NewClusterStrategy("affinity", s)
		if err != nil {
			panic(err)
		}
		return &failingPlacer{ClusterStrategy: inner, store: s.Store}
	})
	storage.RegisterBackend(countingBackend, func(m *storage.Manager, opt storage.BackendOptions) (storage.Backend, error) {
		fb, err := storage.NewFileBackend(m, opt)
		if err != nil {
			return nil, err
		}
		backendOpens.Add(1)
		return countedFile{fb}, nil
	})
}

// drivers runs the same check against both engines: build returns the
// driver's Run and Close.
var drivers = map[string]func(Config) (run func() error, closeFn func() error, err error){
	"serial": func(cfg Config) (func() error, func() error, error) {
		e, err := New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return func() error { _, err := e.Run(); return err }, e.Close, nil
	},
	"concurrent": func(cfg Config) (func() error, func() error, error) {
		c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 1})
		if err != nil {
			return nil, nil, err
		}
		return func() error { _, err := c.Run(); return err }, c.Close, nil
	},
}

// TestFailedTransactionAborts: a transaction whose execution fails must
// reach the WAL as an abort, not a commit — recovery lands on the last good
// commit and skips the failed transaction's journaled mutations.
func TestFailedTransactionAborts(t *testing.T) {
	for name, build := range drivers {
		t.Run(name, func(t *testing.T) {
			cfg := fileConfig(t, quickConfig(400), "never")
			cfg.ClusterStrategy = failingStrategy
			cfg.Users = 1

			placeCountdown.Store(0)
			run, closeFn, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			placeCountdown.Store(3) // the third run-time insert fails
			if err := run(); !errors.Is(err, errInjected) {
				t.Fatalf("Run returned %v, want the injected fault", err)
			}
			if err := closeFn(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			rec, err := storage.RecoverDir(cfg.DataDir, nil)
			if err != nil {
				t.Fatalf("RecoverDir: %v", err)
			}
			if rec.Committed != atFailure.committed {
				t.Errorf("recovered %d committed transactions, want the %d that succeeded", rec.Committed, atFailure.committed)
			}
			if rec.Skipped == 0 {
				t.Error("recovery skipped nothing: the failed transaction's placement was replayed")
			}
			if rec.Digest != atFailure.digest {
				t.Errorf("recovered digest %016x, want the last good commit's %016x", rec.Digest, atFailure.digest)
			}
			if d, err := storage.WALDigestAt(cfg.DataDir, rec.Committed); err != nil || d != rec.Digest {
				t.Errorf("WALDigestAt(last good commit) = %016x, %v; recovered %016x", d, err, rec.Digest)
			}
		})
	}
}

// TestConstructorsCloseBackendOnError: every constructor failure after the
// storage backend opened must close it again.
func TestConstructorsCloseBackendOnError(t *testing.T) {
	faults := map[string]func(*Config){
		"construction-place": func(c *Config) {
			c.ClusterStrategy = failingStrategy
			placeCountdown.Store(5)
		},
		"bootstrap-commit": func(*Config) { failBootstrap.Store(true) },
	}
	for driver, build := range drivers {
		for fault, inject := range faults {
			t.Run(driver+"/"+fault, func(t *testing.T) {
				cfg := fileConfig(t, quickConfig(50), "never")
				cfg.Backend = countingBackend
				inject(&cfg)
				defer func() {
					placeCountdown.Store(0)
					failBootstrap.Store(false)
				}()

				opens, closes := backendOpens.Load(), backendCloses.Load()
				if _, _, err := build(cfg); !errors.Is(err, errInjected) {
					t.Fatalf("constructor returned %v, want the injected fault", err)
				}
				if got := backendOpens.Load() - opens; got != 1 {
					t.Fatalf("backend opened %d times, want 1", got)
				}
				if got := backendCloses.Load() - closes; got != 1 {
					t.Fatalf("backend closed %d times after the failure, want 1", got)
				}
			})
		}
	}

	// A bad replay trace is rejected before the backend ever opens.
	cfg := fileConfig(t, quickConfig(50), "never")
	cfg.Backend = countingBackend
	cfg.Replay = strings.NewReader("not a trace")
	opens := backendOpens.Load()
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a malformed replay trace")
	}
	if backendOpens.Load() != opens {
		t.Fatal("backend opened although the replay trace was rejected")
	}
}

// TestConstructionPlacementPinned pins the physical database two builds
// leave behind: the default tier and the 0.05-scale OCB base, both under
// Linear_Split. Construction resets every statistic, so a split decision
// that changed during the build would show nowhere else. Declining a split
// that cannot win before building its partition graph must not move them.
func TestConstructionPlacementPinned(t *testing.T) {
	t.Parallel()
	ocbBase := DefaultConfig(0.05)
	ocbBase.Workload = WorkloadOCB
	ocbBase.OCB = ocb.DefaultParams()
	def, err := TierConfig(TierDefault)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		digest uint64
		pages  int
	}{
		{"default-tier", def, 0x7bbc6c62787f06f9, 8619},
		{"ocb-0.05", ocbBase, 0xe1c1f74f9ce69162, 19325},
	} {
		e, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d, n := placementDigest(e.store), e.store.NumPages(); d != tc.digest || n != tc.pages {
			t.Errorf("%s: placement digest %#016x over %d pages, want %#016x over %d",
				tc.name, d, n, tc.digest, tc.pages)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDriversShareConstruction: both drivers build their world through
// buildWorld, so the same configuration must leave construction on the same
// physical database with every statistic zeroed.
func TestDriversShareConstruction(t *testing.T) {
	t.Parallel()
	ocbRW := quickOCBConfig(50)
	ocbRW.OCB.ReadWriteRatio = 2
	workloads := map[string]Config{
		"oct":          quickConfig(50),
		"ocb-readonly": quickOCBConfig(50),
		"ocb-rw":       ocbRW,
	}
	for wl, base := range workloads {
		for _, backend := range []string{"memory", "file"} {
			t.Run(wl+"/"+backend, func(t *testing.T) {
				mk := func() Config {
					if backend == "file" {
						return fileConfig(t, base, "never")
					}
					return base
				}
				e, err := New(mk())
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				c, err := NewConcurrent(mk(), ConcurrentOptions{Sessions: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()

				if a, b := placementDigest(e.store), placementDigest(c.store); a != b || a == 0 {
					t.Errorf("placement digest: serial %016x, concurrent %016x", a, b)
				}
				if a, b := e.store.NumPages(), c.store.NumPages(); a != b {
					t.Errorf("pages: serial %d, concurrent %d", a, b)
				}
				for name, w := range map[string]*world{"serial": e.world, "concurrent": c.world} {
					if w.store.NumPlaced() != w.graph.NumObjects() {
						t.Errorf("%s: placed %d of %d objects", name, w.store.NumPlaced(), w.graph.NumObjects())
					}
					if got := w.frames.Stats(); got != (buffer.Stats{}) {
						t.Errorf("%s: pool stats not reset: %+v", name, got)
					}
					if got := w.clust.Stats(); got != (core.ClusterStats{}) {
						t.Errorf("%s: cluster stats not reset: %+v", name, got)
					}
					if got := w.log.Stats(); got != (txlog.Stats{}) {
						t.Errorf("%s: log stats not reset: %+v", name, got)
					}
					if w.frames.Resident() == 0 {
						t.Errorf("%s: pool is cold after construction", name)
					}
				}
			})
		}
	}
}
