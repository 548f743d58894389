package oct

import (
	"math/rand"
)

// ToolProfile calibrates one synthetic tool driver. The paper's real traces
// (≈5000 invocations, ≈400 hours) are unavailable; the targets below are
// taken from the published text where stated exactly (VEM's read/write
// ratio of 6000; the 0.52–170 range across the MOSAICO phases; VEM
// highest-density; Wolfe the only other tool with substantial medium/high
// density; "most of the OCT tools' downward access are dominated by low
// structure density") and estimated from the figures otherwise.
type ToolProfile struct {
	Name string
	// Desc is the tool's role, from Section 3.3.
	Desc string
	// RW is the target read/write ratio.
	RW float64
	// WritesPerRun scales the invocation size.
	WritesPerRun int
	// LowShare, MedShare, HighShare is the target downward fan-out mix.
	LowShare, MedShare, HighShare float64
	// StructureReadShare is the fraction of reads performed through
	// attachment navigation rather than simple lookups.
	StructureReadShare float64
	// IORate is the target logical I/Os per second of session time; the
	// driver back-computes the session duration from it.
	IORate float64
	// Interactive marks tools whose session time includes user interaction
	// (only VEM; batch tools exclude think time).
	Interactive bool
	// IntegrityScan enables the SPARCS-style full-design scan that checks
	// no two terminals have more than one path between them (Section 3.5's
	// example of access patterns referential integrity would eliminate).
	IntegrityScan bool
}

// Toolset returns the ten instrumented OCT tools of Figures 3.2–3.4.
func Toolset() []ToolProfile {
	return []ToolProfile{
		{Name: "vem", Desc: "graphical editor", RW: 6000, WritesPerRun: 2,
			LowShare: 0.15, MedShare: 0.25, HighShare: 0.60,
			StructureReadShare: 0.85, IORate: 25, Interactive: true},
		{Name: "wolfe", Desc: "standard cell placement and global router", RW: 60, WritesPerRun: 40,
			LowShare: 0.45, MedShare: 0.35, HighShare: 0.20,
			StructureReadShare: 0.7, IORate: 120},
		{Name: "sparcs", Desc: "symbolic layout spacer", RW: 25, WritesPerRun: 60,
			LowShare: 0.80, MedShare: 0.15, HighShare: 0.05,
			StructureReadShare: 0.75, IORate: 150, IntegrityScan: true},
		{Name: "misII", Desc: "multiple-level logic optimizer", RW: 40, WritesPerRun: 50,
			LowShare: 0.85, MedShare: 0.12, HighShare: 0.03,
			StructureReadShare: 0.6, IORate: 250},
		{Name: "bdsim", Desc: "multiple-level simulator", RW: 90, WritesPerRun: 25,
			LowShare: 0.82, MedShare: 0.15, HighShare: 0.03,
			StructureReadShare: 0.8, IORate: 350},
		{Name: "atlas", Desc: "MOSAICO phase: routing-region definition", RW: 0.52, WritesPerRun: 400,
			LowShare: 0.90, MedShare: 0.08, HighShare: 0.02,
			StructureReadShare: 0.5, IORate: 80},
		{Name: "cds", Desc: "MOSAICO phase: channel definition", RW: 3, WritesPerRun: 150,
			LowShare: 0.88, MedShare: 0.10, HighShare: 0.02,
			StructureReadShare: 0.55, IORate: 60},
		{Name: "cpre", Desc: "MOSAICO phase: routing preprocessor", RW: 8, WritesPerRun: 80,
			LowShare: 0.85, MedShare: 0.12, HighShare: 0.03,
			StructureReadShare: 0.6, IORate: 70},
		{Name: "pgcurrent", Desc: "MOSAICO phase: power/ground current analysis", RW: 1.5, WritesPerRun: 200,
			LowShare: 0.90, MedShare: 0.08, HighShare: 0.02,
			StructureReadShare: 0.5, IORate: 40},
		{Name: "mosaico", Desc: "MOSAICO phase: macro cell router", RW: 170, WritesPerRun: 20,
			LowShare: 0.75, MedShare: 0.20, HighShare: 0.05,
			StructureReadShare: 0.7, IORate: 200},
	}
}

// design is the pre-built working design a tool navigates: parent objects
// bucketed by attachment fan-out so the driver can realize its density mix.
type design struct {
	facet   ObjID
	lowFan  []ObjID // parents with 0–3 attached objects
	medFan  []ObjID // 4–10
	highFan []ObjID // 11–20
	nets    []ObjID
	terms   []ObjID
	paths   []ObjID
}

// buildDesign constructs a facet with nets, terminals and paths shaped like
// Figure 3.1's example, plus fan-out-bucketed composites.
func buildDesign(m *Manager, rng *rand.Rand) *design {
	d := &design{}
	f := m.Create(Facet)
	d.facet = f.ID
	mk := func(fan int) ObjID {
		net := m.Create(Net)
		m.Attach(f.ID, net.ID) //nolint:errcheck // fresh IDs cannot fail
		d.nets = append(d.nets, net.ID)
		for t := 0; t < fan; t++ {
			term := m.Create(Terminal)
			m.Attach(net.ID, term.ID) //nolint:errcheck
			d.terms = append(d.terms, term.ID)
			if t%2 == 0 {
				p := m.Create(Path)
				m.Attach(term.ID, p.ID) //nolint:errcheck
				d.paths = append(d.paths, p.ID)
			}
		}
		return net.ID
	}
	for i := 0; i < 30; i++ {
		d.lowFan = append(d.lowFan, mk(rng.Intn(4)))
	}
	for i := 0; i < 20; i++ {
		d.medFan = append(d.medFan, mk(4+rng.Intn(7)))
	}
	for i := 0; i < 12; i++ {
		d.highFan = append(d.highFan, mk(11+rng.Intn(10)))
	}
	return d
}

// Run executes one instrumented invocation of the tool against manager m.
func (p ToolProfile) Run(m *Manager, rng *rand.Rand) *Session {
	s := m.Begin(p.Name)
	d := buildDesign(m, rng)

	// Perform the tool's write work (a "write op" may produce both a simple
	// and a structure write, e.g. create-then-attach), interleaved with a
	// baseline of reads, then top reads up until the session's logical
	// read/write ratio matches the calibration target.
	for w := 0; w < p.WritesPerRun; w++ {
		p.doWrite(s, d, rng)
		if rng.Float64() < 0.5 {
			p.doRead(s, d, rng)
		}
	}
	if p.IntegrityScan {
		integrityScan(s, d)
	}
	targetReads := int(p.RW * float64(s.Writes()))
	if targetReads < 1 {
		targetReads = 1
	}
	for s.Reads() < targetReads {
		p.doRead(s, d, rng)
	}
	total := float64(s.Reads() + s.Writes())
	if p.IORate > 0 {
		s.Spend(total / p.IORate)
	}
	return s
}

func (p ToolProfile) doRead(s *Session, d *design, rng *rand.Rand) {
	if rng.Float64() >= p.StructureReadShare {
		s.Get(pickID(rng, d.terms, d.nets))
		return
	}
	var pool []ObjID
	switch x := rng.Float64(); {
	case x < p.LowShare:
		pool = d.lowFan
	case x < p.LowShare+p.MedShare:
		pool = d.medFan
	default:
		pool = d.highFan
	}
	if len(pool) == 0 {
		pool = d.lowFan
	}
	id := pool[rng.Intn(len(pool))]
	if rng.Float64() < 0.9 {
		s.GenAttached(id, NumObjTypes) // downward navigation
	} else {
		s.GenContainers(id) // upward navigation, fan-out ~1
	}
}

func (p ToolProfile) doWrite(s *Session, d *design, rng *rand.Rand) {
	switch rng.Intn(3) {
	case 0: // create and attach a new terminal: simple + structure write
		t := s.Create(Terminal)
		net := d.nets[rng.Intn(len(d.nets))]
		s.Attach(net, t.ID) //nolint:errcheck // fresh IDs cannot fail
		d.terms = append(d.terms, t.ID)
	case 1: // create and attach a path
		pa := s.Create(Path)
		if len(d.terms) > 0 {
			s.Attach(d.terms[rng.Intn(len(d.terms))], pa.ID) //nolint:errcheck
		}
		d.paths = append(d.paths, pa.ID)
	default: // in-place update
		s.Update(pickID(rng, d.terms, d.nets))
	}
}

func pickID(rng *rand.Rand, a, b []ObjID) ObjID {
	if len(a) > 0 && (len(b) == 0 || rng.Intn(2) == 0) {
		return a[rng.Intn(len(a))]
	}
	if len(b) > 0 {
		return b[rng.Intn(len(b))]
	}
	return 0
}

// integrityScan reproduces SPARCS's defensive whole-design scan: for every
// terminal, walk its paths and their terminals checking that no two
// terminals share more than one path — "a tremendous number of unnecessary
// I/Os" that referential-integrity support would eliminate (Section 3.5).
func integrityScan(s *Session, d *design) {
	for _, term := range d.terms {
		paths := s.GenAttached(term, Path)
		for _, pa := range paths {
			s.GenContainers(pa)
		}
	}
}
