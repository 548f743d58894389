package oct

import (
	"errors"
	"math/rand"
	"testing"
)

func TestManagerCreateAttach(t *testing.T) {
	m := NewManager()
	f := m.Create(Facet)
	n := m.Create(Net)
	tm := m.Create(Terminal)
	if err := m.Attach(f.ID, n.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(n.ID, tm.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(f.ID, f.ID); !errors.Is(err, ErrSelfAttach) {
		t.Errorf("self attach: %v", err)
	}
	if err := m.Attach(f.ID, 999); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("bad attach: %v", err)
	}
	if m.NumObjects() != 3 {
		t.Fatalf("objects=%d", m.NumObjects())
	}
	if got := m.AttachedOf(f.ID, NumObjTypes); len(got) != 1 || got[0] != n.ID {
		t.Fatalf("attached: %v", got)
	}
	if got := m.AttachedOf(n.ID, Terminal); len(got) != 1 {
		t.Fatalf("filtered attached: %v", got)
	}
	if got := m.AttachedOf(n.ID, Path); len(got) != 0 {
		t.Fatalf("filter should exclude: %v", got)
	}
	if got := m.ContainersOf(tm.ID); len(got) != 1 || got[0] != n.ID {
		t.Fatalf("containers: %v", got)
	}
	if m.Get(0) != nil || m.Get(100) != nil {
		t.Error("invalid lookups must return nil")
	}
}

func TestObjTypeString(t *testing.T) {
	if Facet.String() != "facet" || Net.String() != "net" || Bag.String() != "bag" {
		t.Fatal("type names wrong")
	}
	if ObjType(99).String() == "" {
		t.Fatal("unknown type should render")
	}
}

func TestSessionInstrumentation(t *testing.T) {
	m := NewManager()
	s := m.Begin("testtool")
	f := s.Create(Facet) // simple write
	n := s.Create(Net)   // simple write
	s.Attach(f.ID, n.ID) //nolint:errcheck — structure write
	for i := 0; i < 3; i++ {
		tm := s.Create(Terminal)
		s.Attach(n.ID, tm.ID) //nolint:errcheck
	}
	s.Get(f.ID)                             // simple read
	got := s.GenAttached(n.ID, NumObjTypes) // structure read x3
	if len(got) != 3 {
		t.Fatalf("attached: %v", got)
	}
	s.GenContainers(n.ID) // structure read x1
	if s.SimpleWrites != 5 || s.StructureWrites != 4 {
		t.Fatalf("writes: simple=%d structure=%d", s.SimpleWrites, s.StructureWrites)
	}
	if s.SimpleReads != 1 || s.StructureReads != 4 {
		t.Fatalf("reads: simple=%d structure=%d", s.SimpleReads, s.StructureReads)
	}
	if s.Down.Total() != 1 || s.Down.Count(3) != 1 {
		t.Fatal("downward fan-out histogram wrong")
	}
	if s.Up.Total() != 1 || s.Up.Count(1) != 1 {
		t.Fatal("upward fan-out histogram wrong")
	}
	if rw := s.ReadWriteRatio(); rw != 5.0/9.0 {
		t.Fatalf("rw=%v", rw)
	}
	s.Spend(2)
	if rate := s.IORate(); rate != 14.0/2 {
		t.Fatalf("rate=%v", rate)
	}
}

func TestSessionNoWrites(t *testing.T) {
	m := NewManager()
	s := m.Begin("r")
	s.Get(1) // missing object still counts as a logical read attempt
	if s.ReadWriteRatio() != 1 {
		t.Fatalf("rw=%v", s.ReadWriteRatio())
	}
	if s.IORate() != 0 {
		t.Fatal("rate without time must be 0")
	}
}

func TestDensityShares(t *testing.T) {
	m := NewManager()
	s := m.Begin("d")
	f := s.Create(Facet)
	nets := make([]ObjID, 3)
	for i, fan := range []int{2, 6, 12} {
		net := s.Create(Net)
		s.Attach(f.ID, net.ID) //nolint:errcheck
		for j := 0; j < fan; j++ {
			tm := s.Create(Terminal)
			s.Attach(net.ID, tm.ID) //nolint:errcheck
		}
		nets[i] = net.ID
	}
	for _, n := range nets {
		s.GenAttached(n, NumObjTypes)
	}
	low, med, high := s.DensityShares()
	if low != 1.0/3 || med != 1.0/3 || high != 1.0/3 {
		t.Fatalf("shares: %v %v %v", low, med, high)
	}
}

func TestToolProfilesCalibration(t *testing.T) {
	tools := Toolset()
	if len(tools) != 10 {
		t.Fatalf("toolset size %d", len(tools))
	}
	rng := rand.New(rand.NewSource(4))
	for _, p := range tools {
		m := NewManager()
		s := p.Run(m, rng)
		got := s.ReadWriteRatio()
		if got < p.RW*0.9 || got > p.RW*1.6 {
			t.Errorf("%s: rw=%.2f, target %.2f", p.Name, got, p.RW)
		}
		if s.Seconds <= 0 {
			t.Errorf("%s: no session time", p.Name)
		}
		rate := s.IORate()
		if ratio := rate / p.IORate; ratio < 0.99 || ratio > 1.01 {
			t.Errorf("%s: io rate %.1f, target %.1f", p.Name, rate, p.IORate)
		}
	}
}

func TestTraceMatchesPaperShape(t *testing.T) {
	stats := Trace(5, 1)
	byName := map[string]ToolStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	vem := byName["vem"]
	// VEM has the highest read/write ratio, around 6000 (Figure 3.2).
	for _, s := range stats {
		if s.Name != "vem" && s.RWRatio >= vem.RWRatio {
			t.Errorf("%s ratio %.0f >= vem %.0f", s.Name, s.RWRatio, vem.RWRatio)
		}
	}
	if vem.RWRatio < 4000 {
		t.Errorf("vem ratio %.0f, want ~6000", vem.RWRatio)
	}
	// VEM has the highest structure density; every non-wolfe tool is
	// low-density dominated (Figure 3.4).
	for _, s := range stats {
		if s.Name == "vem" {
			if s.HighShare < s.LowShare {
				t.Errorf("vem should be high-density dominated: %+v", s)
			}
			continue
		}
		if s.Name == "wolfe" {
			continue
		}
		if s.LowShare < 0.5 {
			t.Errorf("%s should be low-density dominated: low=%.2f", s.Name, s.LowShare)
		}
	}
	// The MOSAICO phases span the published 0.52–170 range.
	if byName["atlas"].RWRatio > 1 {
		t.Errorf("atlas ratio %.2f, want <1", byName["atlas"].RWRatio)
	}
	if byName["mosaico"].RWRatio < 150 {
		t.Errorf("mosaico ratio %.1f, want ~170", byName["mosaico"].RWRatio)
	}
}

func TestTraceDeterministic(t *testing.T) {
	a := Trace(3, 42)
	b := Trace(3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic: %+v vs %+v", a[i], b[i])
		}
	}
}
