package oodb

import (
	"strings"
	"testing"
)

func TestParseDensity(t *testing.T) {
	for s, want := range map[string]string{
		"low-3": "low-3", "LO3": "low-3",
		"med-5": "med-5", "medium": "med-5",
		"high-10": "high-10", "hi10": "high-10",
	} {
		got, err := ParseDensity(s)
		if err != nil || got.String() != want {
			t.Errorf("ParseDensity(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseDensity("huge"); err == nil {
		t.Error("bad density accepted")
	}
}

func TestParseClusterPolicy(t *testing.T) {
	for s, want := range map[string]string{
		"No_Cluster": "No_Cluster", "none": "No_Cluster",
		"Within_Buffer": "Cluster_within_Buffer",
		"2_IO_limit":    "2_IO_limit", "io10": "10_IO_limit",
		"No_limit": "No_limit", "unlimited": "No_limit",
	} {
		got, err := ParseClusterPolicy(s)
		if err != nil || got.String() != want {
			t.Errorf("ParseClusterPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseClusterPolicy("fancy"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestParseSplitReplacementPrefetch(t *testing.T) {
	if p, err := ParseSplitPolicy("NP_Split"); err != nil || p != NPSplit {
		t.Errorf("split: %v %v", p, err)
	}
	if p, err := ParseSplitPolicy("greedy"); err != nil || p != LinearSplit {
		t.Errorf("split: %v %v", p, err)
	}
	if _, err := ParseSplitPolicy("zig"); err == nil {
		t.Error("bad split accepted")
	}
	if r, err := ParseReplacement("Context-sensitive"); err != nil || r != ReplContext {
		t.Errorf("repl: %v %v", r, err)
	}
	if r, err := ParseReplacement("rand"); err != nil || r != ReplRandom {
		t.Errorf("repl: %v %v", r, err)
	}
	if _, err := ParseReplacement("fifo"); err == nil {
		t.Error("bad replacement accepted")
	}
	if p, err := ParsePrefetchPolicy("db"); err != nil || p != PrefetchWithinDB {
		t.Errorf("prefetch: %v %v", p, err)
	}
	if p, err := ParsePrefetchPolicy("No_prefetch"); err != nil || p != NoPrefetch {
		t.Errorf("prefetch: %v %v", p, err)
	}
	if _, err := ParsePrefetchPolicy("psychic"); err == nil {
		t.Error("bad prefetch accepted")
	}
}

func TestParseReplacementRegistryNames(t *testing.T) {
	if r, err := ParseReplacement("Context"); err != nil || r != ReplContext {
		t.Errorf("paper name: %v %v", r, err)
	}
	if r, err := ParseReplacement("clock"); err != nil || r != "clock" {
		t.Errorf("registry name: %q %v", r, err)
	}
	if _, err := ParseReplacement("fifo"); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown policy: %v", err)
	}
}
