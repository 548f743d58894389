package engine

import (
	"os"
	"path/filepath"
	"testing"

	"oodb/internal/obs"
	"oodb/internal/storage"
)

// fileConfig wires cfg to the file backend in a fresh directory.
func fileConfig(t *testing.T, cfg Config, fsync string) Config {
	t.Helper()
	cfg.Backend = "file"
	cfg.DataDir = t.TempDir()
	cfg.Fsync = fsync
	return cfg
}

// runClosed runs cfg to completion and closes the engine, so a persistent
// data directory is left checkpointed and recoverable.
func runClosed(t *testing.T, cfg Config) Results {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatalf("storage invariants: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return res
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
			mem := runClosed(t, base)
			file := runClosed(t, fileConfig(t, base, "interval"))

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
			ref := runClosed(t, refCfg)
			_ = ref

			crashCfg := fileConfig(t, base, "always")
			runClosed(t, crashCfg)

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

// A file-backed engine run with instrumentation installed surfaces the
// durability counters through the obs layer.
func TestFileBackendObservability(t *testing.T) {
	cfg := fileConfig(t, quickConfig(120), "always")
	var counters obs.Counters
	cfg.Recorder = &counters
	runClosed(t, cfg)
	for _, e := range []obs.Event{obs.WALAppend, obs.WALFsync, obs.StorePageRead} {
		if counters.CountOf(e) == 0 {
			t.Errorf("event %s never counted", e)
		}
	}
	// Recovery replay events count too.
	var rc obs.Counters
	if _, err := storage.RecoverDir(cfg.DataDir, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.CountOf(obs.WALRecoveryReplayed) == 0 {
		t.Error("recovery replayed no records")
	}
}

// The concurrent engine drives the same durable seam: one session matches
// the serial digest, and the WAL recovers. Runs under -race in CI.
func TestConcurrentFileBackendDurability(t *testing.T) {
	base := quickConfig(300)
	base.Users = 1
	base.Warmup = 0

	serial := runClosed(t, base)

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
