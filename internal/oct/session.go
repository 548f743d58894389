package oct

import "oodb/internal/stats"

// Session is the instrumentation wrapper the paper added around OCT: it
// brackets a tool invocation between octBegin() and octEnd(), classifying
// every operation as a structure read (retrieval through attachment links),
// simple read, structure write (attachment creation), or simple write, and
// recording the fan-out of upward and downward structural accesses.
type Session struct {
	m    *Manager
	Tool string

	// Counters at the logical level, as seen by the buffer manager.
	StructureReads  int
	SimpleReads     int
	StructureWrites int
	SimpleWrites    int

	// Fan-out histograms for structural accesses.
	Down *stats.Histogram
	Up   *stats.Histogram

	// Seconds is the session duration. Tools run in batch mode accumulate
	// it via Spend; it excludes think time as in the paper.
	Seconds float64

	// PerTypeReads counts reads by object type.
	PerTypeReads [NumObjTypes]int
}

// Begin opens an instrumented session for the named tool (octBegin()).
func (m *Manager) Begin(tool string) *Session {
	return &Session{
		m:    m,
		Tool: tool,
		Down: stats.NewHistogram(64),
		Up:   stats.NewHistogram(64),
	}
}

// Spend accrues session time in seconds.
func (s *Session) Spend(seconds float64) { s.Seconds += seconds }

// Create makes a new object (a simple write).
func (s *Session) Create(t ObjType) *Object {
	s.SimpleWrites++
	return s.m.Create(t)
}

// Get reads one object by ID (a simple read).
func (s *Session) Get(id ObjID) *Object {
	s.SimpleReads++
	o := s.m.Get(id)
	if o != nil {
		s.PerTypeReads[o.Type]++
	}
	return o
}

// Update modifies an object in place (a simple write).
func (s *Session) Update(id ObjID) bool {
	s.SimpleWrites++
	return s.m.Get(id) != nil
}

// Attach creates an attachment (a structure write).
func (s *Session) Attach(parent, child ObjID) error {
	s.StructureWrites++
	return s.m.Attach(parent, child)
}

// GenAttached retrieves the objects attached to id, optionally filtered by
// type — a downward structural access. Every object returned counts as a
// structure read; the fan-out is recorded.
func (s *Session) GenAttached(id ObjID, filter ObjType) []ObjID {
	out := s.m.AttachedOf(id, filter)
	s.StructureReads += len(out)
	s.Down.Add(len(out))
	for _, a := range out {
		if o := s.m.Get(a); o != nil {
			s.PerTypeReads[o.Type]++
		}
	}
	return out
}

// GenContainers retrieves the objects id is attached to — an upward
// structural access.
func (s *Session) GenContainers(id ObjID) []ObjID {
	out := s.m.ContainersOf(id)
	s.StructureReads += len(out)
	s.Up.Add(len(out))
	return out
}

// Reads returns total logical reads.
func (s *Session) Reads() int { return s.StructureReads + s.SimpleReads }

// Writes returns total logical writes.
func (s *Session) Writes() int { return s.StructureWrites + s.SimpleWrites }

// ReadWriteRatio returns reads per write for the session (Section 3.3's
// definition). A session with no writes returns reads as the ratio.
func (s *Session) ReadWriteRatio() float64 {
	if s.Writes() == 0 {
		return float64(s.Reads())
	}
	return float64(s.Reads()) / float64(s.Writes())
}

// IORate returns logical I/Os per second of session time (Section 3.3's
// Figure 3.3 metric).
func (s *Session) IORate() float64 {
	if s.Seconds <= 0 {
		return 0
	}
	return float64(s.Reads()+s.Writes()) / s.Seconds
}

// DensityShares returns the fractions of downward structural accesses in
// the paper's three buckets: low (0–3), medium (4–10), and high (>10).
func (s *Session) DensityShares() (low, med, high float64) {
	low = s.Down.RangeShare(0, 3)
	med = s.Down.RangeShare(4, 10)
	high = s.Down.RangeShare(11, 1<<30)
	return low, med, high
}
