package oodb

import (
	"fmt"
	"strings"

	"oodb/internal/core"
	"oodb/internal/workload"
)

// String-to-policy parsing, shared by the command-line tools and useful for
// configuration files. Accepted spellings follow the paper's figure labels
// plus forgiving lower-case shorthands.

// ParseDensity parses a structure-density class: "low-3"/"lo3",
// "med-5"/"med5", "high-10"/"hi10".
func ParseDensity(s string) (workload.DensityClass, error) {
	switch strings.ToLower(s) {
	case "low-3", "lo3", "low":
		return workload.LowDensity, nil
	case "med-5", "med5", "med", "medium":
		return workload.MedDensity, nil
	case "high-10", "hi10", "high":
		return workload.HighDensity, nil
	}
	return 0, fmt.Errorf("oodb: unknown density %q (want low-3, med-5, or high-10)", s)
}

// ParseClusterPolicy parses a clustering policy: "No_Cluster",
// "Within_Buffer", "2_IO_limit", "10_IO_limit", "No_limit".
func ParseClusterPolicy(s string) (ClusterPolicy, error) {
	switch strings.ToLower(s) {
	case "no_cluster", "nocluster", "none":
		return core.PolicyNoCluster, nil
	case "within_buffer", "cluster_within_buffer", "withinbuffer", "buffer":
		return core.PolicyWithinBuffer, nil
	case "2_io_limit", "2io", "io2":
		return core.PolicyIOLimit2, nil
	case "10_io_limit", "10io", "io10":
		return core.PolicyIOLimit10, nil
	case "no_limit", "nolimit", "unlimited":
		return core.PolicyNoLimit, nil
	}
	return ClusterPolicy{}, fmt.Errorf("oodb: unknown clustering policy %q", s)
}

// ParseSplitPolicy parses "No_Splitting", "Linear_Split", or "NP_Split".
func ParseSplitPolicy(s string) (SplitPolicy, error) {
	switch strings.ToLower(s) {
	case "no_splitting", "nosplit", "no", "none":
		return core.NoSplit, nil
	case "linear_split", "linear", "greedy":
		return core.LinearSplit, nil
	case "np_split", "np", "optimal":
		return core.NPSplit, nil
	}
	return 0, fmt.Errorf("oodb: unknown split policy %q", s)
}

// ParseReplacement parses a replacement policy: the paper's "LRU",
// "Context"/"Context-sensitive" or "Random", or any other registered policy
// name (e.g. "clock"; see ReplacementPolicies).
func ParseReplacement(s string) (Replacement, error) {
	switch strings.ToLower(s) {
	case "lru":
		return core.ReplLRU, nil
	case "context", "context-sensitive", "ctx":
		return core.ReplContext, nil
	case "random", "rand":
		return core.ReplRandom, nil
	}
	if !HasReplacementPolicy(s) {
		return "", fmt.Errorf("oodb: unknown replacement policy %q (registered: %v)", s, ReplacementPolicies())
	}
	return Replacement(s), nil
}

// ParsePrefetchPolicy parses "No_prefetch"/"none",
// "Prefetch_within_buffer"/"buffer", or "Prefetch_within_DB"/"db".
func ParsePrefetchPolicy(s string) (PrefetchPolicy, error) {
	switch strings.ToLower(s) {
	case "no_prefetch", "none", "no":
		return core.NoPrefetch, nil
	case "prefetch_within_buffer", "within_buffer", "buffer":
		return core.PrefetchWithinBuffer, nil
	case "prefetch_within_db", "within_db", "db", "database":
		return core.PrefetchWithinDB, nil
	}
	return 0, fmt.Errorf("oodb: unknown prefetch policy %q", s)
}
