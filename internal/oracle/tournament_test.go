package oracle

import (
	"testing"

	"oodb/internal/core"
)

// tournamentRoster is the minimum contender set the cross-strategy sweeps
// must cover. If any of these disappears from the registry — a deleted
// init(), a renamed registration — the sweep tests would silently shrink,
// so this test fails loudly instead.
var tournamentRoster = []string{"affinity", "dstc", "dro", "noop"}

// TestRegistrySweepNeverSkips pins the differential sweeps to the live
// registry: every named contender must be registered, the registry must not
// shrink below its known size, and every registered strategy — not just the
// roster — must have a wiring of its own in both recorded streams' sweeps
// (read-only and write-enabled OCB), which replay it once each.
func TestRegistrySweepNeverSkips(t *testing.T) {
	names := core.ClusterStrategyNames()
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	for _, want := range tournamentRoster {
		if !core.HasClusterStrategy(want) || !have[want] {
			t.Fatalf("strategy %q missing from registry sweep %v", want, names)
		}
	}
	// affinity, dro, dstc and noop, one name per registration. A shrinking
	// registry means a strategy was de-registered and every sweep that
	// ranges over ClusterStrategyNames() quietly lost coverage.
	if len(names) < 4 {
		t.Fatalf("registry shrank to %d strategies (%v); sweeps lost coverage", len(names), names)
	}
	// The aliases are not listed, so no sweep runs them twice, but they
	// still resolve: -strategy default and -strategy none stay accepted.
	for _, alias := range []string{"default", "none"} {
		if !core.HasClusterStrategy(alias) || have[alias] {
			t.Errorf("alias %q: resolves %v, listed %v; want resolved and unlisted",
				alias, core.HasClusterStrategy(alias), have[alias])
		}
	}

	read, write := wirings(tinyOCBConfig()), wirings(tinyWriteConfig())
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for stream, ws := range map[string][]wiring{"read": read, "write": write} {
				found := false
				for _, w := range ws {
					found = found || w.cfg.ClusterStrategy == name
				}
				if !found {
					t.Errorf("%s stream sweep skips strategy %q", stream, name)
				}
			}
		})
	}
}
