package core

import (
	"testing"

	"oodb/internal/buffer"
	"oodb/internal/storage"
)

// protected reports whether pg holds high priority in c.
func protected(c *ContextPolicy, pg storage.PageID) bool { return c.pos.Get(pg).prot }

// tracked returns the number of pages c knows about.
func tracked(c *ContextPolicy) int { return c.prot.Len() + c.prob.Len() }

func TestContextAdmitAndVictimLRUOrder(t *testing.T) {
	c := NewContextPolicy(8)
	p := buffer.NewPool(3, c)
	p.Access(1) //nolint:errcheck
	p.Access(2) //nolint:errcheck
	p.Access(3) //nolint:errcheck
	// No page has proven useful: all probationary, LRU order 1,2,3.
	res, _ := p.Access(4)
	if res.Victim != 1 {
		t.Fatalf("victim=%d, want 1", res.Victim)
	}
}

func TestContextReReferencePromotes(t *testing.T) {
	c := NewContextPolicy(8)
	p := buffer.NewPool(3, c)
	p.Access(1) //nolint:errcheck
	p.Access(2) //nolint:errcheck
	p.Access(1) //nolint:errcheck — re-reference: promoted
	if !protected(c, 1) {
		t.Fatal("re-referenced page must be protected")
	}
	p.Access(3) //nolint:errcheck
	res, _ := p.Access(4)
	if res.Victim != 2 {
		t.Fatalf("victim=%d, want probationary 2", res.Victim)
	}
}

func TestContextBoostProtects(t *testing.T) {
	c := NewContextPolicy(8)
	p := buffer.NewPool(3, c)
	p.Access(1) //nolint:errcheck
	p.Boost(1)  // structurally related: protected despite one reference
	p.Access(2) //nolint:errcheck
	p.Access(3) //nolint:errcheck
	res, _ := p.Access(4)
	if res.Victim == 1 {
		t.Fatal("boosted page evicted before probationary pages")
	}
}

func TestContextScanResistance(t *testing.T) {
	c := NewContextPolicy(4)
	p := buffer.NewPool(8, c)
	// Hot working set: pages 1..4, protected via boosts.
	for pg := storage.PageID(1); pg <= 4; pg++ {
		p.Access(pg) //nolint:errcheck
		p.Boost(pg)
	}
	// A long one-shot scan floods the pool.
	for pg := storage.PageID(100); pg < 140; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	for pg := storage.PageID(1); pg <= 4; pg++ {
		if !p.Contains(pg) {
			t.Fatalf("scan displaced protected page %d", pg)
		}
	}
}

func TestContextProtectedOverflowDemotes(t *testing.T) {
	c := NewContextPolicy(2)
	p := buffer.NewPool(6, c)
	for pg := storage.PageID(1); pg <= 4; pg++ {
		p.Access(pg) //nolint:errcheck
		p.Boost(pg)
	}
	if c.prot.Len() != 2 {
		t.Fatalf("protected=%d, want capacity 2", c.prot.Len())
	}
	// 1 and 2 were demoted (oldest protections); 3 and 4 remain.
	if protected(c, 1) || protected(c, 2) || !protected(c, 3) || !protected(c, 4) {
		t.Fatal("demotion order wrong")
	}
}

func TestContextVictimFallsBackToProtected(t *testing.T) {
	c := NewContextPolicy(8)
	p := buffer.NewPool(2, c)
	p.Access(1) //nolint:errcheck
	p.Boost(1)
	p.Access(2) //nolint:errcheck
	p.Boost(2)
	// Everything is protected; eviction must still succeed.
	res, err := p.Access(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Victim != 1 {
		t.Fatalf("victim=%d, want LRU protected page 1", res.Victim)
	}
}

func TestContextRemovedCleansUp(t *testing.T) {
	c := NewContextPolicy(8)
	p := buffer.NewPool(2, c)
	p.Access(1) //nolint:errcheck
	p.Access(2) //nolint:errcheck
	p.Access(3) //nolint:errcheck — evicts 1
	if tracked(c) != 2 {
		t.Fatalf("tracked=%d", tracked(c))
	}
	c.Boosted(1) // non-resident: must be ignored
	c.Touched(1)
	if tracked(c) != 2 || protected(c, 1) {
		t.Fatal("operations on evicted pages must be ignored")
	}
}

func TestContextDefaultCapacity(t *testing.T) {
	c := NewContextPolicy(0)
	if c.capacity != 64 {
		t.Fatalf("default capacity=%d", c.capacity)
	}
}
