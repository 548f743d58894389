package oracle

import (
	"strings"
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/storage"
)

// tinyOCBConfig is a small OCB configuration the oracle tests replay under
// many wirings.
func tinyOCBConfig() engine.Config {
	cfg := engine.DefaultConfig(0.005)
	cfg.Workload = engine.WorkloadOCB
	cfg.Transactions = 250
	cfg.Seed = 7
	return cfg
}

// recordTiny records the shared OCB stream once per test binary.
var sharedStream *Stream

func stream(t *testing.T) *Stream {
	t.Helper()
	if sharedStream == nil {
		s, err := Record(tinyOCBConfig())
		if err != nil {
			t.Fatalf("recording OCB stream: %v", err)
		}
		sharedStream = s
	}
	return sharedStream
}

// isTestPolicy filters test-only registrations (like the deliberately broken
// policy below) out of the all-policies sweeps.
func isTestPolicy(name string) bool { return strings.HasPrefix(name, "test") }

func TestBaselinePassesConservation(t *testing.T) {
	if err := CheckConservation(stream(t).Base); err != nil {
		t.Fatal(err)
	}
}

// wiring is one policy variant of a recorded stream's configuration.
type wiring struct {
	name string
	cfg  engine.Config
}

// wirings lists base rewired to every registered replacement policy, every
// registered clustering strategy and every prefetch level, one dimension at
// a time. base names no replacement policy or strategy, so no two entries
// are the same configuration.
func wirings(base engine.Config) []wiring {
	var out []wiring
	for _, name := range buffer.PolicyNames() {
		if !isTestPolicy(name) {
			cfg := base
			cfg.Replacement = core.Replacement(name)
			out = append(out, wiring{"replacement=" + name, cfg})
		}
	}
	for _, name := range core.ClusterStrategyNames() {
		cfg := base
		cfg.ClusterStrategy = name
		out = append(out, wiring{"strategy=" + name, cfg})
	}
	for _, pf := range []core.PrefetchPolicy{core.NoPrefetch, core.PrefetchWithinBuffer, core.PrefetchWithinDB} {
		cfg := base
		cfg.Prefetch = pf
		out = append(out, wiring{"prefetch=" + pf.String(), cfg})
	}
	return out
}

// sweep replays s once under each of base's wirings whose name starts with
// dim ("" for all of them) and holds every replay to the recorded baseline:
// conserved physical accounting, the baseline's logical results and the
// baseline's final logical database.
func sweep(t *testing.T, s *Stream, base engine.Config, dim string) {
	for _, w := range wirings(base) {
		if !strings.HasPrefix(w.name, dim) {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := s.Replay(w.cfg)
			if err != nil {
				t.Fatalf("replaying %s: %v", w.cfg.Label(), err)
			}
			if err := CheckConservation(res); err != nil {
				t.Error(err)
			}
			if err := CheckEquivalence(s.Base, res); err != nil {
				t.Error(err)
			}
			if err := CheckFinalState(s.Base, res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestOracleAcrossReplacementPolicies replays the recorded read-only stream
// under every registered replacement policy and checks it against the
// default wiring: same logical results, conserved physical accounting.
func TestOracleAcrossReplacementPolicies(t *testing.T) {
	sweep(t, stream(t), tinyOCBConfig(), "replacement=")
}

// TestOracleAcrossClusterStrategies does the same across the registered
// clustering strategies.
func TestOracleAcrossClusterStrategies(t *testing.T) {
	sweep(t, stream(t), tinyOCBConfig(), "strategy=")
}

// TestOracleAcrossPrefetchPolicies does the same across the prefetch levels.
func TestOracleAcrossPrefetchPolicies(t *testing.T) {
	sweep(t, stream(t), tinyOCBConfig(), "prefetch=")
}

// tinyWriteConfig is a write-enabled OCB configuration: roughly one write
// per 1.5 reads across all four write kinds, with locking disabled so every
// transaction executes synchronously at submission — the precondition for
// cross-policy write equivalence (see the package doc).
func tinyWriteConfig() engine.Config {
	cfg := engine.DefaultConfig(0.005)
	cfg.Workload = engine.WorkloadOCB
	cfg.OCB.ReadWriteRatio = 1.5
	cfg.Locking = false
	cfg.Transactions = 250
	cfg.Seed = 11
	return cfg
}

var sharedWriteStream *Stream

func writeStream(t *testing.T) *Stream {
	t.Helper()
	if sharedWriteStream == nil {
		s, err := Record(tinyWriteConfig())
		if err != nil {
			t.Fatalf("recording write-enabled OCB stream: %v", err)
		}
		sharedWriteStream = s
	}
	return sharedWriteStream
}

// TestWriteOracleAcrossAllPolicies is the write-enabled stream's table: the
// full write oracle — identical logical-read digests, identical final
// logical databases, zero conservation violations and conserved accounting
// — under every registered replacement policy, clustering strategy and
// prefetch level. It is the differential gate for the write pipeline.
func TestWriteOracleAcrossAllPolicies(t *testing.T) {
	s := writeStream(t)
	if s.Base.WriteTxns == 0 {
		t.Fatal("write-enabled stream produced no write transactions")
	}
	if err := CheckConservation(s.Base); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	sweep(t, s, tinyWriteConfig(), "")
}

// TestOCTStreamConservation: the conservation half of the oracle applies to
// write workloads too (equivalence does not — lock waits can reorder write
// execution). Record an OCT stream and check conservation under two
// policies.
func TestOCTStreamConservation(t *testing.T) {
	cfg := engine.DefaultConfig(0.005)
	cfg.Transactions = 250
	cfg.Seed = 7
	s, err := Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConservation(s.Base); err != nil {
		t.Fatal(err)
	}
	variant := cfg
	variant.Replacement = "clock"
	res, err := s.Replay(variant)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConservation(res); err != nil {
		t.Fatal(err)
	}
}

// brokenPolicy is the deliberately faulty test-only replacement policy: its
// Victim always names a page that was never resident, so the pool's
// eviction is a no-op and occupancy creeps past capacity — exactly what the
// occupancy conservation invariant exists to catch.
type brokenPolicy struct{}

func (brokenPolicy) Name() string            { return "test-broken" }
func (brokenPolicy) Admitted(storage.PageID) {}
func (brokenPolicy) Touched(storage.PageID)  {}
func (brokenPolicy) Boosted(storage.PageID)  {}
func (brokenPolicy) Removed(storage.PageID)  {}
func (brokenPolicy) Victim() (storage.PageID, bool) {
	return storage.PageID(1 << 30), true
}

func init() {
	buffer.RegisterPolicy("test-broken", func(buffer.PolicyConfig) buffer.Policy {
		return brokenPolicy{}
	})
}

// TestBrokenPolicyCaughtByConservation: the oracle must flag the broken
// policy via at least one conservation invariant.
func TestBrokenPolicyCaughtByConservation(t *testing.T) {
	s := stream(t)
	cfg := tinyOCBConfig()
	cfg.Replacement = "test-broken"
	res, err := s.Replay(cfg)
	if err != nil {
		t.Fatalf("replay under broken policy: %v", err)
	}
	err = CheckConservation(res)
	if err == nil {
		t.Fatal("conservation check passed for the deliberately broken policy")
	}
	if !strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("expected the occupancy invariant to fire, got: %v", err)
	}
}

// TestEquivalenceDetectsDivergence: feeding the equivalence check two
// different streams' results must fail — the check is not vacuous.
func TestEquivalenceDetectsDivergence(t *testing.T) {
	s := stream(t)
	other := tinyOCBConfig()
	other.Seed = 8
	s2, err := Record(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckEquivalence(s.Base, s2.Base); err == nil {
		t.Fatal("equivalence check passed for two different streams")
	}
}
