package buffer

import "oodb/internal/storage"

// Frames is the buffer-pool seam the access layer and the policy machinery
// above it (cluster, prefetch) program against: residency, dirty tracking,
// and priority boosts, without committing to how the frame table is
// organized or synchronized.
//
// Pool is the one frame table: single-threaded, one global replacement
// policy, victim order exactly reproducible — what the simulator uses for
// byte-identical figures. ConcurrentPool, what the concurrent multi-session
// engine uses, is locked shards of Pool: pages route to a shard by page-ID
// hash, victim order is shard-local, and sessions on different shards never
// contend.
type Frames interface {
	// Access brings pg into the pool (if needed) and touches it.
	Access(pg storage.PageID) (AccessResult, error)
	// Install makes pg resident without a physical read (fresh pages).
	Install(pg storage.PageID) (AccessResult, error)
	// Contains reports whether pg is resident.
	Contains(pg storage.PageID) bool
	// MarkDirty flags a resident page as modified.
	MarkDirty(pg storage.PageID) error
	// Boost raises pg's replacement priority if it is resident and reports
	// whether it was: one probe where Contains-then-Boost takes two.
	Boost(pg storage.PageID) bool
}

var (
	_ Frames = (*Pool)(nil)
	_ Frames = (*ConcurrentPool)(nil)
)
