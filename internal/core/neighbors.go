package core

import (
	"oodb/internal/model"
	"oodb/internal/storage"
)

// The neighborhood helpers here are the innermost loops of candidate
// ranking, context boosting, and prefetch-group computation. Typical
// fan-outs are a handful of pages, so deduplication is a linear scan over
// the pages gathered so far — no map, no allocation — and every helper has
// an Append form that accumulates into a caller-owned buffer.

// containsPage reports whether pgs contains pg (linear scan; the lists the
// hot paths build are a few entries long).
func containsPage(pgs []storage.PageID, pg storage.PageID) bool {
	for _, p := range pgs {
		if p == pg {
			return true
		}
	}
	return false
}

// AppendNeighborPages appends to dst the distinct pages holding o's one-hop
// neighbors along kind, excluding o's own page and unplaced neighbors, in
// traversal order. The appended pages are deduplicated against each other
// (not against dst's prior contents) and limit bounds the number appended
// (0 means unbounded).
func AppendNeighborPages(dst []storage.PageID, g *model.Graph, st storage.Backend, o *model.Object, kind model.RelKind, limit int) []storage.PageID {
	own := st.PageOf(o.ID)
	base := len(dst)
	for i, cnt := 0, o.NeighborCount(kind); i < cnt; i++ {
		pg := st.PageOf(o.NeighborAt(kind, i))
		if pg == storage.NilPage || pg == own {
			continue
		}
		if containsPage(dst[base:], pg) {
			continue
		}
		dst = append(dst, pg)
		if limit > 0 && len(dst)-base >= limit {
			break
		}
	}
	return dst
}

// rankKinds writes the relationship kinds into buf in descending effective
// traversal frequency for o and returns the ranked slice. When a user hint
// is active (and honored), the hinted kind ranks first regardless of
// frequency. The sort is a stable insertion sort over the fixed-size kind
// set — no comparator closures, no allocation.
func rankKinds(buf *[model.NumRelKinds]model.RelKind, o *model.Object, hints HintPolicy, hint Hint) []model.RelKind {
	for k := model.RelKind(0); k < model.NumRelKinds; k++ {
		buf[k] = k
	}
	kinds := buf[:]
	freq := o.Freq()
	for i := 1; i < len(kinds); i++ {
		k := kinds[i]
		j := i
		for j > 0 && freq[kinds[j-1]] < freq[k] {
			kinds[j] = kinds[j-1]
			j--
		}
		kinds[j] = k
	}
	if hints != UserHints || !hint.Active {
		return kinds
	}
	// Promote the hinted kind to the front, preserving relative order of the
	// rest.
	for i, k := range kinds {
		if k == hint.Kind {
			copy(kinds[1:i+1], kinds[:i])
			kinds[0] = hint.Kind
			break
		}
	}
	return kinds
}

// AppendPrefetchGroup appends to dst the pages the paper's prefetch hints
// would target when touching o: for a configuration hint, the pages of the
// immediate subcomponents; for a version hint, the immediate ancestor and
// descendants; for correspondence, all corresponding objects; for
// inheritance, the inheritance source. Without an active hint, the object's
// dominant relationship kind is used.
func AppendPrefetchGroup(dst []storage.PageID, g *model.Graph, st storage.Backend, o *model.Object, hints HintPolicy, hint Hint) []storage.PageID {
	kind := o.Freq().Dominant()
	if hints == UserHints && hint.Active {
		kind = hint.Kind
	}
	base := len(dst)
	dst = AppendNeighborPages(dst, g, st, o, kind, 0)
	// Version hints fetch both directions of the history. The second
	// direction merges into the first: already-present pages are skipped.
	var other model.RelKind
	switch kind {
	case model.VersionAncestor:
		other = model.VersionDescendant
	case model.VersionDescendant:
		other = model.VersionAncestor
	default:
		return dst
	}
	own := st.PageOf(o.ID)
	for i, cnt := 0, o.NeighborCount(other); i < cnt; i++ {
		pg := st.PageOf(o.NeighborAt(other, i))
		if pg == storage.NilPage || pg == own {
			continue
		}
		if containsPage(dst[base:], pg) {
			continue
		}
		dst = append(dst, pg)
	}
	return dst
}

// ContextNeighborLimit bounds how many related pages the context-sensitive
// replacement policy boosts per access. Keeping it modest is what leaves
// room for prefetch-within-buffer to add value at high structure density
// (Figure 5.12).
const ContextNeighborLimit = 4

// contextBoostLocal is the stack-buffer bound for per-kind page gathering in
// AppendContextBoostPages; boost limits beyond it fall back to a heap
// buffer.
const contextBoostLocal = 16

// AppendContextBoostPages appends to dst the related pages the
// context-sensitive policy raises on each access: the top pages along the
// object's two most traversed relationship kinds, at most limit of them
// (ContextNeighborLimit by default; non-positive disables boosting). Per
// ranked kind it gathers up to the remaining limit of that kind's distinct
// neighbor pages, then merges them into dst, skipping pages an earlier kind
// already contributed.
func AppendContextBoostPages(dst []storage.PageID, g *model.Graph, st storage.Backend, o *model.Object, limit int) []storage.PageID {
	if limit <= 0 {
		return dst
	}
	var kindBuf [model.NumRelKinds]model.RelKind
	kinds := rankKinds(&kindBuf, o, NoHints, Hint{})
	own := st.PageOf(o.ID)
	base := len(dst)
	var localBuf [contextBoostLocal]storage.PageID
	for _, k := range kinds[:2] {
		rem := limit - (len(dst) - base)
		if rem <= 0 {
			break
		}
		// local tracks the distinct pages gathered for this kind: rem bounds
		// their count, whether or not a page is new to dst.
		local := localBuf[:0]
		if rem > contextBoostLocal {
			local = make([]storage.PageID, 0, rem)
		}
		for i, cnt := 0, o.NeighborCount(k); i < cnt; i++ {
			pg := st.PageOf(o.NeighborAt(k, i))
			if pg == storage.NilPage || pg == own {
				continue
			}
			if containsPage(local, pg) {
				continue
			}
			local = append(local, pg)
			if !containsPage(dst[base:], pg) {
				dst = append(dst, pg)
			}
			if len(local) >= rem {
				break
			}
		}
	}
	return dst
}
