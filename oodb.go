// Package oodb is an object-oriented database storage manager that exploits
// inheritance and structure semantics for clustering and buffering, a
// faithful reproduction of the system described in:
//
//	Ellis E. Chang and Randy H. Katz. "Exploiting Inheritance and Structure
//	Semantics for Effective Clustering and Buffering in an Object-Oriented
//	DBMS." SIGMOD 1989 (UCB/CSD 88/473).
//
// The package offers two entry points:
//
//   - DB: an embeddable object store over the Version Data Model — typed,
//     versioned objects with configuration, version-history, and
//     correspondence relationships — whose physical placement is managed by
//     the paper's run-time clustering algorithm and whose page accesses run
//     through a context-sensitive buffer pool. Physical I/O is modeled (the
//     store is in-memory) and fully accounted, so applications can observe
//     exactly what the paper's policies would do to their access patterns.
//
//   - Simulation and experiments: RunSimulation executes the paper's
//     ten-user engineering-database model for one configuration;
//     RunExperiment regenerates any of the paper's tables and figures.
package oodb

import (
	"fmt"

	"oodb/internal/buffer"
	"oodb/internal/core"
	"oodb/internal/engine"
	"oodb/internal/model"
	"oodb/internal/storage"
)

// Re-exported model vocabulary. These aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// ObjectID identifies an object.
	ObjectID = model.ObjectID
	// TypeID identifies a type in the lattice.
	TypeID = model.TypeID
	// Object is a versioned design object. Its traversal-frequency profile
	// (Freq, FreqOf) is shared with its type and read-only: it changes only
	// when the clusterer implements an inherited attribute by reference,
	// which gives that one object its own copy. AttrImpl(i) reads the
	// implementation of inherited attribute i. The object's name is not a
	// field: DB.Triple renders it. A *Object stays valid for the database's
	// life; once Delete removes the object it reads as the zero Object.
	Object = model.Object
	// Type is a representation type.
	Type = model.Type
	// AttrDef declares an attribute on a type.
	AttrDef = model.AttrDef
	// FreqProfile is a traversal-frequency profile.
	FreqProfile = model.FreqProfile
	// RelKind is a structural-relationship kind.
	RelKind = model.RelKind
	// PageID identifies a storage page.
	PageID = storage.PageID

	// ClusterPolicy selects the candidate-page pool for clustering.
	ClusterPolicy = core.ClusterPolicy
	// SplitPolicy selects page-overflow handling.
	SplitPolicy = core.SplitPolicy
	// PrefetchPolicy selects the prefetch scope.
	PrefetchPolicy = core.PrefetchPolicy
	// Replacement names the buffer replacement policy.
	Replacement = core.Replacement
	// Hint is a user access hint.
	Hint = core.Hint
)

// Relationship kinds.
const (
	ConfigDown        = model.ConfigDown
	ConfigUp          = model.ConfigUp
	VersionAncestor   = model.VersionAncestor
	VersionDescendant = model.VersionDescendant
	Correspondence    = model.Correspondence
	InheritanceRef    = model.InheritanceRef

	NilObject = model.NilObject
	NilType   = model.NilType
	NilPage   = storage.NilPage
)

// Policy constants.
var (
	PolicyNoCluster    = core.PolicyNoCluster
	PolicyWithinBuffer = core.PolicyWithinBuffer
	PolicyIOLimit2     = core.PolicyIOLimit2
	PolicyIOLimit10    = core.PolicyIOLimit10
	PolicyNoLimit      = core.PolicyNoLimit
)

// Split, prefetch and replacement levels.
const (
	NoSplit     = core.NoSplit
	LinearSplit = core.LinearSplit
	NPSplit     = core.NPSplit

	NoPrefetch           = core.NoPrefetch
	PrefetchWithinBuffer = core.PrefetchWithinBuffer
	PrefetchWithinDB     = core.PrefetchWithinDB

	ReplLRU     = core.ReplLRU
	ReplContext = core.ReplContext
	ReplRandom  = core.ReplRandom
)

// Durability (file-backed storage) re-exports.
type (
	// RecoveredState summarizes a write-ahead-log replay: records found,
	// transactions committed, mutations applied, and the rebuilt placement
	// state with its verified digest.
	RecoveredState = storage.RecoveredState
	// DurableStats counts a persistent backend's log I/O and the page
	// transfers the buffer pool asked of it.
	DurableStats = storage.DurableStats
)

// RecoverDataDir replays the write-ahead log in a file-backend data
// directory — for example one left behind by a crashed run — applying the
// mutations of committed transactions and verifying the result against the
// digest the log committed. The log is the directory's only file and the
// sole recovery authority.
func RecoverDataDir(dir string) (*RecoveredState, error) {
	return storage.RecoverDir(dir, nil)
}

// WALDigestAt returns the placement digest carried by the k-th commit
// record (0-indexed) in dir's write-ahead log: commit 0 is the database
// construction bootstrap, run commits follow in log order. It lets a
// crash-recovery check compare an interrupted run's recovered state
// against the same commit point of an uninterrupted reference run.
func WALDigestAt(dir string, k int) (uint64, error) {
	return storage.WALDigestAt(dir, k)
}

// ReplacementPolicies returns the registered buffer replacement policy
// names, sorted. These are the values Config.Replacement, Options.Replacement
// and the CLI -repl flag accept beyond the paper's spellings.
func ReplacementPolicies() []string { return buffer.PolicyNames() }

// HasReplacementPolicy reports whether name resolves in the replacement
// policy registry (case- and punctuation-insensitive).
func HasReplacementPolicy(name string) bool { return buffer.HasPolicy(name) }

// ClusterStrategies returns the registered clustering strategy names,
// sorted. These are the values Config.ClusterStrategy and the CLI
// -strategy flag accept.
func ClusterStrategies() []string { return core.ClusterStrategyNames() }

// HasClusterStrategy reports whether name resolves in the clustering
// strategy registry.
func HasClusterStrategy(name string) bool { return core.HasClusterStrategy(name) }

// Options configures a DB.
type Options struct {
	// PageSize is the page capacity in bytes (default 4096).
	PageSize int
	// BufferFrames is the buffer-pool size in pages (default 1000).
	BufferFrames int
	// Replacement selects the buffer replacement policy: ReplLRU,
	// ReplContext, ReplRandom or any registered name (ReplacementPolicies).
	// The zero value is ReplLRU; the paper recommends ReplContext.
	Replacement Replacement
	// Cluster selects the clustering policy. The zero value is
	// PolicyNoCluster (objects placed in creation order); the paper
	// recommends PolicyNoLimit when the read/write ratio is high.
	Cluster ClusterPolicy
	// Split selects the page-splitting policy (default LinearSplit).
	Split SplitPolicy
	// Prefetch selects the prefetch policy (default NoPrefetch).
	Prefetch PrefetchPolicy
	// Seed drives the Random replacement policy (default 1).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = 4096
	}
	if o.BufferFrames <= 0 {
		o.BufferFrames = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// IOStats accounts the modeled physical I/O a DB has performed.
type IOStats struct {
	LogicalReads  int
	PageReads     int
	PageWrites    int
	HitRatio      float64
	ClusterMoves  int
	Splits        int
	CandidateIOs  int
	PrefetchReads int
}

// DB is an object store whose placement and buffering follow the paper's
// algorithms. It is the library driver over the storage stack the simulator
// and the load generator run (internal/engine): every method is bookkeeping
// on the object graph plus one read or write through that stack. It is not
// safe for concurrent use; wrap it with your own synchronization if needed.
type DB struct {
	opt   Options
	graph *model.Graph
	store *storage.Manager
	lib   *engine.Library

	// lib's clusterer and prefetcher, typed for the hint interface.
	clust *core.Clusterer
	pf    *core.Prefetcher
}

// Open creates an empty database.
func Open(opt Options) (*DB, error) {
	opt = opt.withDefaults()
	cfg := engine.DefaultConfig(1)
	cfg.PageSize = opt.PageSize
	cfg.Buffers = opt.BufferFrames
	cfg.Replacement = opt.Replacement
	cfg.Cluster = opt.Cluster
	cfg.Split = opt.Split
	cfg.Prefetch = opt.Prefetch
	cfg.Seed = opt.Seed

	g := model.NewGraph()
	st := storage.NewManager(g, opt.PageSize)
	lib, err := engine.OpenLibrary(cfg, g, st)
	if err != nil {
		return nil, fmt.Errorf("oodb: %w", err)
	}
	// cfg names no clustering strategy, so the world runs the paper's
	// affinity algorithm.
	clust := lib.Clusterer().(*core.Clusterer)
	return &DB{opt: opt, graph: g, store: st, lib: lib, clust: clust, pf: lib.Prefetcher()}, nil
}

// DefineType adds a type to the lattice.
func (db *DB) DefineType(name string, super TypeID, baseSize int, freq FreqProfile, attrs []AttrDef) (TypeID, error) {
	return db.graph.DefineType(name, super, baseSize, freq, attrs)
}

// TypeOf returns a type definition.
func (db *DB) TypeOf(id TypeID) *Type { return db.graph.Type(id) }

// create places the new object o with the clustering policy; linked are the
// objects whose relationship lists gained o.
func (db *DB) create(o *Object, linked ...ObjectID) (*Object, error) {
	if err := db.lib.Create(o, linked...); err != nil {
		return nil, err
	}
	return o, nil
}

// CreateObject creates version `version` of design object `name`, decides
// its inherited-attribute implementations, and places it with the
// clustering policy.
func (db *DB) CreateObject(name string, version int, t TypeID) (*Object, error) {
	o, err := db.graph.NewObject(name, version, t)
	if err != nil {
		return nil, err
	}
	return db.create(o)
}

// CreateAttached creates an object already attached to a composite, so the
// clustering algorithm sees the configuration relationship when it picks
// the initial placement — the natural way to add a component. This is the
// programmatic form of the paper's creation-time "place near object XX"
// hints.
func (db *DB) CreateAttached(name string, version int, t TypeID, composite ObjectID) (*Object, error) {
	o, err := db.graph.NewObject(name, version, t)
	if err != nil {
		return nil, err
	}
	if err := db.graph.Attach(composite, o.ID); err != nil {
		return nil, err
	}
	return db.create(o, composite)
}

// Get reads one object, running the buffer, context-boost, and prefetch
// machinery.
func (db *DB) Get(id ObjectID) (*Object, error) {
	o := db.graph.Object(id)
	if o == nil {
		return nil, fmt.Errorf("oodb: %w: %d", model.ErrNoSuchObject, id)
	}
	if err := db.lib.Read(id); err != nil {
		return nil, fmt.Errorf("oodb: %w", err)
	}
	return o, nil
}

// GetClosure reads an object and its one-hop neighborhood along kind,
// returning the neighbor objects — the shape of the paper's component /
// composite / version / correspondence retrieval queries.
func (db *DB) GetClosure(id ObjectID, kind RelKind) ([]*Object, error) {
	o, err := db.Get(id)
	if err != nil {
		return nil, err
	}
	ids := append([]ObjectID(nil), o.Neighbors(kind)...)
	out := make([]*Object, 0, len(ids))
	for _, n := range ids {
		no, err := db.Get(n)
		if err != nil {
			return nil, err
		}
		out = append(out, no)
	}
	return out, nil
}

// Attach adds a configuration relationship and reclusters the component.
func (db *DB) Attach(composite, component ObjectID) error {
	if err := db.graph.Attach(composite, component); err != nil {
		return err
	}
	return db.lib.Relink(db.graph.Object(component), db.graph.Object(composite))
}

// Correspond adds a correspondence relationship and reclusters both ends.
func (db *DB) Correspond(a, b ObjectID) error {
	if err := db.graph.Correspond(a, b); err != nil {
		return err
	}
	oa, ob := db.graph.Object(a), db.graph.Object(b)
	if err := db.lib.Relink(oa, ob); err != nil {
		return err
	}
	return db.lib.Relink(ob, oa)
}

// Derive creates and places a new version of ancestor.
func (db *DB) Derive(ancestor ObjectID) (*Object, error) {
	o, err := db.graph.Derive(ancestor)
	if err != nil {
		return nil, err
	}
	return db.create(o, ancestor)
}

// Delete removes an object that anchors no structure (no components, no
// descendant versions): its page space is reclaimed and every relationship
// pointing at it is unlinked. Deleting a composite or a versioned ancestor
// returns model.ErrInUse; dismantle bottom-up.
func (db *DB) Delete(id ObjectID) error {
	o := db.graph.Object(id)
	if o == nil {
		return fmt.Errorf("oodb: %w: %d", model.ErrNoSuchObject, id)
	}
	if len(o.Components()) > 0 || len(o.Descendants()) > 0 {
		return model.ErrInUse
	}
	if db.store.PageOf(id) == NilPage {
		// Never reached a page (a snapshot may carry such objects): there
		// is no placement to undo.
		return db.graph.DeleteObject(id)
	}
	return db.lib.Remove(o)
}

// RegisterHint registers the application's primary access pattern, e.g.
// "access by configuration" (the paper's procedural hint interface). It
// steers placement and prefetching when the hint policy honors hints.
func (db *DB) RegisterHint(kind RelKind) {
	h := Hint{Kind: kind, Active: true}
	db.clust.Hints = core.UserHints
	db.clust.Hint = h
	db.pf.Hints = core.UserHints
	db.pf.Hint = h
}

// ClearHint removes the registered hint.
func (db *DB) ClearHint() {
	db.clust.Hints = core.NoHints
	db.pf.Hints = core.NoHints
}

// PageOf returns the page an object lives on.
func (db *DB) PageOf(id ObjectID) PageID { return db.store.PageOf(id) }

// Triple renders the paper's name[i].type notation for an object, or
// #id[i].type for an unnamed one. Two objects may share a triple: see
// Checkin.
func (db *DB) Triple(id ObjectID) string { return db.graph.Triple(id) }

// NumObjects returns the number of objects.
func (db *DB) NumObjects() int { return db.graph.NumObjects() }

// NumPages returns the number of allocated pages.
func (db *DB) NumPages() int { return db.store.NumPages() }

// Stats returns cumulative I/O accounting.
func (db *DB) Stats() IOStats {
	r := db.lib.Results()
	return IOStats{
		LogicalReads:  r.LogicalOps,
		PageReads:     r.PhysReads,
		PageWrites:    r.PhysWrites,
		HitRatio:      r.HitRatio,
		ClusterMoves:  r.Cluster.Moves,
		Splits:        r.Cluster.Splits,
		CandidateIOs:  r.Cluster.CandidateIOs,
		PrefetchReads: db.pf.PrefetchReads,
	}
}

// CheckInvariants validates storage consistency (every object on exactly
// one page, page capacities respected), that no write has left the
// placed-object count different from the live-object count, and the
// relationship graph (model.Graph.CheckRelations).
func (db *DB) CheckInvariants() error {
	if n := db.lib.Results().ConservationViolations; n != 0 {
		return fmt.Errorf("oodb: %d writes left placed objects != live objects", n)
	}
	if err := db.graph.CheckRelations(); err != nil {
		return fmt.Errorf("oodb: %w", err)
	}
	return db.store.CheckInvariants()
}
