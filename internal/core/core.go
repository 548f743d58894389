// Package core implements the paper's primary contribution: the run-time
// (re)clustering algorithm and the context-sensitive buffering strategy that
// exploit inheritance and structural semantics.
//
// The package provides:
//
//   - ContextPolicy: the priority-based buffer replacement policy whose
//     priorities are driven by structural relationships (Section 2.2);
//   - Prefetcher: hint-driven prefetch over configuration, version,
//     correspondence and inheritance neighborhoods, with the three scopes of
//     Table 4.1 (none / within buffer pool / within database);
//   - Clusterer: the dynamic clustering algorithm (Section 2.1) with the
//     candidate-page-pool policies (within buffer, k-I/O limit, unlimited),
//     user-hint handling, the inherited-attribute copy-vs-reference cost
//     model, and run-time reclustering on structure change;
//   - the page-splitting policies: no split, the linear greedy partition,
//     and the exact ("NP") minimum-cut partition.
//
// All functions report the physical I/Os they imply as ordered []PhysIO so
// the simulation engine can charge them to disks.
package core

import (
	"fmt"

	"oodb/internal/model"
	"oodb/internal/storage"
)

// ClusterMode selects the candidate-page pool available to the clustering
// algorithm (control parameter H of Table 4.1).
type ClusterMode uint8

const (
	// NoCluster disables clustering: objects are appended to the allocation
	// frontier in creation order.
	NoCluster ClusterMode = iota
	// ClusterWithinBuffer considers only candidate pages already resident in
	// the buffer pool; the clustering phase never issues an I/O.
	ClusterWithinBuffer
	// ClusterIOLimit allows a bounded number of candidate-page I/Os per
	// placement (the paper studies limits of 2 and 10).
	ClusterIOLimit
	// ClusterNoLimit searches candidates anywhere in the database.
	ClusterNoLimit
)

// ClusterPolicy is a clustering mode plus its I/O budget.
type ClusterPolicy struct {
	Mode ClusterMode
	// IOLimit is the per-placement candidate I/O budget; meaningful only for
	// ClusterIOLimit.
	IOLimit int
}

// The five clustering policies evaluated in Section 5.1.
var (
	PolicyNoCluster    = ClusterPolicy{Mode: NoCluster}
	PolicyWithinBuffer = ClusterPolicy{Mode: ClusterWithinBuffer}
	PolicyIOLimit2     = ClusterPolicy{Mode: ClusterIOLimit, IOLimit: 2}
	PolicyIOLimit10    = ClusterPolicy{Mode: ClusterIOLimit, IOLimit: 10}
	PolicyNoLimit      = ClusterPolicy{Mode: ClusterNoLimit}
)

// String names the policy as in the paper's figures.
func (p ClusterPolicy) String() string {
	switch p.Mode {
	case NoCluster:
		return "No_Cluster"
	case ClusterWithinBuffer:
		return "Cluster_within_Buffer"
	case ClusterIOLimit:
		return fmt.Sprintf("%d_IO_limit", p.IOLimit)
	case ClusterNoLimit:
		return "No_limit"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", p.Mode)
}

// SplitPolicy selects page-overflow handling (control parameter I).
type SplitPolicy uint8

const (
	// NoSplit never splits: the next best candidate page is used instead.
	NoSplit SplitPolicy = iota
	// LinearSplit uses the one-pass greedy partition of [CHAN87a].
	LinearSplit
	// NPSplit finds the minimum-cut partition (exact for the small graphs a
	// page holds).
	NPSplit
)

// String names the split policy.
func (p SplitPolicy) String() string {
	switch p {
	case NoSplit:
		return "No_Splitting"
	case LinearSplit:
		return "Linear_Split"
	case NPSplit:
		return "NP_Split"
	}
	return fmt.Sprintf("SplitPolicy(%d)", p)
}

// PrefetchPolicy selects the prefetch scope (control parameter M).
type PrefetchPolicy uint8

const (
	// NoPrefetch disables prefetching.
	NoPrefetch PrefetchPolicy = iota
	// PrefetchWithinBuffer only adjusts the priority of already-resident
	// related pages; it triggers no I/O.
	PrefetchWithinBuffer
	// PrefetchWithinDB fetches related pages from anywhere in the database,
	// paying real I/Os.
	PrefetchWithinDB
)

// String names the prefetch policy.
func (p PrefetchPolicy) String() string {
	switch p {
	case NoPrefetch:
		return "No_prefetch"
	case PrefetchWithinBuffer:
		return "Prefetch_within_buffer"
	case PrefetchWithinDB:
		return "Prefetch_within_DB"
	}
	return fmt.Sprintf("PrefetchPolicy(%d)", p)
}

// Replacement names the buffer replacement policy (control parameter K) in
// the buffer package's policy registry. The constants are the paper's three
// policies; any other registered name (e.g. "clock") selects that policy.
type Replacement string

const (
	// ReplLRU is least-recently-used.
	ReplLRU Replacement = "LRU"
	// ReplContext is the context-sensitive priority policy.
	ReplContext Replacement = "Context-sensitive"
	// ReplRandom replaces a random page.
	ReplRandom Replacement = "Random"
)

// String names the replacement policy: the zero value is ReplLRU.
func (r Replacement) String() string {
	if r == "" {
		return string(ReplLRU)
	}
	return string(r)
}

// HintPolicy selects whether user hints are honored (control parameter J).
type HintPolicy uint8

const (
	// NoHints ignores registered hints.
	NoHints HintPolicy = iota
	// UserHints lets registered hints steer placement and prefetching.
	UserHints
)

// String names the hint policy.
func (h HintPolicy) String() string {
	if h == UserHints {
		return "User_hint"
	}
	return "No_hint"
}

// Hint is a user access hint registered through the procedural interface,
// e.g. "my primary access is via configuration relationships".
type Hint struct {
	// Kind is the relationship the application primarily navigates.
	Kind model.RelKind
	// Active reports whether a hint is registered at all.
	Active bool
}

// IOKind distinguishes physical reads from writes.
type IOKind uint8

const (
	// ReadIO is a physical page read.
	ReadIO IOKind = iota
	// WriteIO is a physical page write.
	WriteIO
)

// PhysIO is one physical disk operation implied by a logical action. Log
// I/Os target the dedicated log disk rather than a data page.
type PhysIO struct {
	Kind IOKind
	Page storage.PageID // NilPage for log I/Os
	Log  bool
}

// ReadOf returns the PhysIO for reading a data page.
func ReadOf(pg storage.PageID) PhysIO { return PhysIO{Kind: ReadIO, Page: pg} }

// WriteOf returns the PhysIO for writing a data page.
func WriteOf(pg storage.PageID) PhysIO { return PhysIO{Kind: WriteIO, Page: pg} }

// LogWrite returns the PhysIO for one physical log write.
func LogWrite() PhysIO { return PhysIO{Kind: WriteIO, Log: true} }
