package engine

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"oodb/internal/storage"
	"oodb/internal/workload"
)

// fileConfig wires cfg to the file backend in a fresh directory.
func fileConfig(t *testing.T, cfg Config, fsync string) Config {
	t.Helper()
	cfg.Backend = "file"
	cfg.DataDir = t.TempDir()
	cfg.Fsync = fsync
	return cfg
}

// The file backend must be logically invisible: the same configuration
// produces byte-identical logical results whether the run journals and
// performs real I/O or stays purely in memory.
func TestFileBackendDigestMatchesMemory(t *testing.T) {
	t.Parallel()
	cases := map[string]Config{
		"oct": quickConfig(300),
		"ocb": quickOCBConfig(300),
	}
	for name, base := range cases {
		t.Run(name, func(t *testing.T) {
			mem := run(t, base)
			file := run(t, fileConfig(t, base, "interval"))

			if mem.LogicalDigest != file.LogicalDigest {
				t.Fatalf("digest diverged: memory %016x, file %016x", mem.LogicalDigest, file.LogicalDigest)
			}
			if mem.Completed != file.Completed || mem.LogicalOps != file.LogicalOps {
				t.Fatalf("logical counts diverged: %d/%d vs %d/%d",
					mem.Completed, mem.LogicalOps, file.Completed, file.LogicalOps)
			}
			if mem.PhysReads != file.PhysReads || mem.PhysWrites != file.PhysWrites {
				t.Fatalf("simulated I/O diverged: %d/%d vs %d/%d",
					mem.PhysReads, mem.PhysWrites, file.PhysReads, file.PhysWrites)
			}
			if mem.Durability != (storage.DurableStats{}) {
				t.Fatalf("memory run reported durable I/O: %+v", mem.Durability)
			}
			d := file.Durability
			if d.WALAppends == 0 || d.WALBytes == 0 || d.Committed == 0 {
				t.Fatalf("file run reported no WAL activity: %+v", d)
			}
			if d.WALSyncs == 0 {
				t.Fatalf("interval fsync never synced: %+v", d)
			}
		})
	}
}

// Crash recovery, end to end at the engine layer: interrupt a file-backend
// run by truncating its WAL at arbitrary byte offsets (what a torn crash
// leaves behind) and verify replay recovers exactly the digest an
// uninterrupted, independently seeded-and-run reference reached at the same
// commit point.
func TestFileBackendCrashPrefixRecovery(t *testing.T) {
	t.Parallel()
	for name, base := range map[string]Config{
		"oct": quickConfig(250),
		"ocb": quickOCBConfig(250),
	} {
		t.Run(name, func(t *testing.T) {
			refCfg := fileConfig(t, base, "always")
			run(t, refCfg)

			crashCfg := fileConfig(t, base, "always")
			run(t, crashCfg)

			walBytes, err := os.ReadFile(filepath.Join(crashCfg.DataDir, storage.WALFileName))
			if err != nil {
				t.Fatal(err)
			}
			// Cut the log at a spread of offsets; each prefix must recover
			// to the reference run's digest at the same commit count.
			for _, frac := range []float64{0.25, 0.5, 0.75, 0.95, 1.0} {
				cut := int(float64(len(walBytes)) * frac)
				crashDir := t.TempDir()
				if err := os.WriteFile(filepath.Join(crashDir, storage.WALFileName), walBytes[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				st, err := storage.RecoverDir(crashDir, nil)
				if err != nil {
					t.Fatalf("cut %d: recovery failed: %v", cut, err)
				}
				if st.Applied == 0 {
					// The cut fell before the bootstrap commit: nothing was
					// durable yet, and recovery must land on the empty state.
					if st.Objects != 0 || st.Digest != 0 {
						t.Fatalf("cut %d: pre-bootstrap prefix recovered state: %+v", cut, st)
					}
					continue
				}
				want, err := storage.WALDigestAt(refCfg.DataDir, st.Committed)
				if err != nil {
					t.Fatalf("cut %d: reference digest at commit %d: %v", cut, st.Committed, err)
				}
				if st.Digest != want {
					t.Fatalf("cut %d: recovered digest %016x at commit %d, reference %016x",
						cut, st.Digest, st.Committed, want)
				}
			}
		})
	}
}

// A file-backed engine run reports its durability counters in Results, and
// recovery reports the mutation records it replayed.
func TestFileBackendObservability(t *testing.T) {
	cfg := fileConfig(t, quickConfig(120), "always")
	if d := run(t, cfg).Durability; d.WALAppends == 0 || d.WALSyncs == 0 || d.PageReads == 0 {
		t.Errorf("durability counters missing: %+v", d)
	}
	st, err := storage.RecoverDir(cfg.DataDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Applied == 0 {
		t.Error("recovery replayed no records")
	}
}

// TestDataDirHoldsOnlyTheLog: a file-backed run on every driver leaves
// only wal.log in its data directory, while the pool's page transfers are
// still counted through the backend.
func TestDataDirHoldsOnlyTheLog(t *testing.T) {
	t.Parallel()
	base := quickOCBConfig(150)
	base.OCB.ReadWriteRatio = 2
	drivers := map[string]func(t *testing.T, cfg Config) storage.DurableStats{
		"serial": func(t *testing.T, cfg Config) storage.DurableStats { return run(t, cfg).Durability },
		"concurrent": func(t *testing.T, cfg Config) storage.DurableStats {
			c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if cerr := c.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			return res.Durability
		},
		"library": func(t *testing.T, cfg Config) storage.DurableStats {
			// More pages than the pool has frames, so the read faults.
			l, ty := openTestLibrary(t, cfg)
			for i := 0; i < 300; i++ {
				if err := applyLibrary(l, workload.Op{Kind: workload.QInsert, NewType: ty}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Read(1); err != nil {
				t.Fatal(err)
			}
			d := l.Results().Durability
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			cfg := fileConfig(t, base, "never")
			if d := drive(t, cfg); d.PageReads == 0 {
				t.Errorf("no page transfers counted: %+v", d)
			}
			entries, err := os.ReadDir(cfg.DataDir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if len(names) != 1 || names[0] != storage.WALFileName {
				t.Fatalf("data directory holds %q, want only %s", names, storage.WALFileName)
			}
		})
	}
}

// The concurrent engine drives the same durable seam: one session matches
// the serial digest, and the WAL recovers. Runs under -race in CI.
func TestConcurrentFileBackendDurability(t *testing.T) {
	base := quickConfig(300)
	base.Users = 1
	base.Warmup = 0

	serial := run(t, base)

	cfg := fileConfig(t, base, "interval")
	c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if res.LogicalDigest != serial.LogicalDigest {
		t.Fatalf("digest diverged: serial %016x, concurrent file %016x", serial.LogicalDigest, res.LogicalDigest)
	}
	if res.Durability.WALAppends == 0 {
		t.Fatalf("no WAL activity: %+v", res.Durability)
	}
	st, err := storage.RecoverDir(cfg.DataDir, nil)
	if err != nil {
		t.Fatalf("recovery of concurrent run: %v", err)
	}
	if st.Committed == 0 || st.Applied == 0 {
		t.Fatalf("recovered nothing: %+v", st)
	}
}

// Multi-session file-backed run: real parallel load over one WAL. The
// serialized write path must keep the log commit-consistent.
func TestConcurrentFileBackendParallelSessions(t *testing.T) {
	cfg := fileConfig(t, quickConfig(400), "never")
	cfg.Users = 4
	c, err := NewConcurrent(cfg, ConcurrentOptions{Sessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := storage.RecoverDir(cfg.DataDir, nil)
	if err != nil {
		t.Fatalf("recovery of parallel run: %v", err)
	}
	if st.Committed == 0 {
		t.Fatalf("no committed transactions recovered: %+v", st)
	}
}

func TestEngineCloseIdempotent(t *testing.T) {
	e, err := New(fileConfig(t, quickConfig(30), "never"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// A memory engine closes as a no-op.
	m, err := New(quickConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidationBackend(t *testing.T) {
	bad := []struct {
		field  string
		mutate func(*Config)
	}{
		{"backend", func(c *Config) { c.Backend = "tape" }},
		{"fsync", func(c *Config) { c.Fsync = "sometimes" }},
		{"data dir", func(c *Config) { c.Backend = "file"; c.DataDir = "" }},
		{"DataDir without persistent backend", func(c *Config) { c.DataDir = "/tmp/x" }},
		{"Fsync without persistent backend", func(c *Config) { c.Fsync = "always" }},
	}
	for _, tc := range bad {
		cfg := quickConfig(10)
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
		}
	}
	good := quickConfig(10)
	good.Backend = "file"
	good.DataDir = t.TempDir()
	good.Fsync = "interval"
	if err := good.Validate(); err != nil {
		t.Errorf("valid file-backend config rejected: %v", err)
	}
}

// Backend wiring is a physical-realization knob, not a logical parameter:
// the fingerprint (the memo and results-cache key) must not change with it.
func TestFingerprintExcludesBackend(t *testing.T) {
	a := quickConfig(10)
	b := fileConfig(t, quickConfig(10), "never")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("backend wiring changed the config fingerprint")
	}
}

// TestWALBytesPinned pins the write-ahead log a small closed serial run
// leaves behind, byte for byte: how records reach the file (one write per
// record or one per batch) must never change what the file holds.
func TestWALBytesPinned(t *testing.T) {
	t.Parallel()
	ocbMix := DefaultConfig(0.01)
	ocbMix.Workload = WorkloadOCB
	ocbMix.OCB.ReadWriteRatio = 2
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"oct", DefaultConfig(0.01), "c6a49ef9116348fb6e987d7bdc39438cd0dd1ddf5f423a82cf1585dbf197637f"},
		{"ocb-rw2", ocbMix, "88d0a8ff3f1b4900ce80edadd75471f4506097d26fdab335e4f8de19546f0417"},
	} {
		cfg := tc.cfg
		cfg.Transactions = 500
		cfg = fileConfig(t, cfg, "never")
		run(t, cfg)
		b, err := os.ReadFile(filepath.Join(cfg.DataDir, storage.WALFileName))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
			t.Errorf("%s: wal.log (%d bytes) sha256 %s, want %s", tc.name, len(b), got, tc.want)
		}
	}
}
