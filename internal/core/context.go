package core

import (
	"oodb/internal/buffer"
	"oodb/internal/storage"
)

// ContextPolicy is the paper's context-sensitive buffer replacement policy:
// a two-level priority scheme in which the lowest-priority pages are
// replaced first, and priorities are driven by the semantics of the
// inter-object relationships rather than recency alone.
//
// Pages enter the pool at low priority (probationary). A page is raised to
// high priority (protected) when it proves useful: it is re-referenced
// while resident, or it is *boosted* — the hook through which structural
// knowledge flows in. Boosts arrive when a page holds objects related to
// one just touched, when the prefetcher marks it as about to be needed,
// and when the cluster manager wants candidate pages kept for the
// clustering phase. Victims come from the probationary level (LRU order),
// so one-shot scans wash through without displacing the related working
// set — precisely the failure of native LRU that Section 5.1 traces
// ("the native LRU replacement policy frequently overlays the potential
// candidate page").
//
// The protected level is bounded; overflow demotes its least-recently-used
// page back to probationary, so stale protections age out.
//
// Both levels are intrusive buffer.PageLists with pooled, free-listed
// nodes, and the page index is a page-indexed buffer.PageTable — the
// Admitted / Touched / Boosted / Removed cycle allocates nothing at steady
// state.
type ContextPolicy struct {
	capacity int             // protected-level bound
	prot     buffer.PageList // high priority, front = MRU
	prob     buffer.PageList // low priority, front = MRU
	pos      buffer.PageTable[ctxSlot]
}

// ctxSlot locates a tracked page: its node handle and which level it is on.
// The zero slot (the nil handle) marks an untracked page.
type ctxSlot struct {
	h    int32
	prot bool
}

// NewContextPolicy returns a context-sensitive policy whose protected
// level holds up to protectedCap pages. Values around three quarters of
// the pool size work well; non-positive values default to 64.
func NewContextPolicy(protectedCap float64) *ContextPolicy {
	cap := int(protectedCap)
	if cap <= 0 {
		cap = 64
	}
	return &ContextPolicy{capacity: cap}
}

// ClonePolicy implements buffer.PolicyCloner: both levels in the same
// order, every page on the level it was on.
func (c *ContextPolicy) ClonePolicy(buffer.PolicyConfig) buffer.Policy {
	return &ContextPolicy{capacity: c.capacity, prot: c.prot.Clone(), prob: c.prob.Clone(), pos: c.pos.Clone()}
}

// Name implements buffer.Policy.
func (c *ContextPolicy) Name() string { return "Context-sensitive" }

// Admitted implements buffer.Policy: new pages start probationary.
func (c *ContextPolicy) Admitted(pg storage.PageID) {
	c.pos.Set(pg, ctxSlot{h: c.prob.PushFront(pg)})
}

// Touched implements buffer.Policy: a re-reference while resident raises
// the page to the protected level.
func (c *ContextPolicy) Touched(pg storage.PageID) {
	s := c.pos.Get(pg)
	if s.h == 0 {
		return
	}
	if s.prot {
		c.prot.MoveToFront(s.h)
		return
	}
	c.promote(pg, s.h)
}

// Boosted implements buffer.Policy: structural relevance raises the page
// immediately, without waiting for a second reference.
func (c *ContextPolicy) Boosted(pg storage.PageID) {
	c.Touched(pg)
}

func (c *ContextPolicy) promote(pg storage.PageID, h int32) {
	c.prob.Remove(h)
	c.pos.Set(pg, ctxSlot{h: c.prot.PushFront(pg), prot: true})
	// Bounded protection: demote the coldest protected page.
	if c.prot.Len() > c.capacity {
		tail := c.prot.Back()
		tp := c.prot.Page(tail)
		c.prot.Remove(tail)
		c.pos.Set(tp, ctxSlot{h: c.prob.PushFront(tp)})
	}
}

// Removed implements buffer.Policy.
func (c *ContextPolicy) Removed(pg storage.PageID) {
	s := c.pos.Get(pg)
	if s.h == 0 {
		return
	}
	if s.prot {
		c.prot.Remove(s.h)
	} else {
		c.prob.Remove(s.h)
	}
	c.pos.Set(pg, ctxSlot{})
}

// Victim implements buffer.Policy: the least-recently-used probationary
// page; only when no probationary page exists does the protected level
// yield its tail.
func (c *ContextPolicy) Victim() (storage.PageID, bool) {
	for _, l := range [2]*buffer.PageList{&c.prob, &c.prot} {
		if h := l.Back(); h != 0 {
			return l.Page(h), true
		}
	}
	return storage.NilPage, false
}
