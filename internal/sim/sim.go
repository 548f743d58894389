// Package sim is a small discrete-event simulation kernel. It plays the role
// that the commercial PAWS (Performance Analyst's Workbench System) modeling
// language played in the paper: an event calendar, first-come-first-served
// service stations with queueing statistics, delay stations for think time,
// and deterministic per-component random-number streams.
//
// Model code schedules func values on the calendar with At and After.
// Long-running activities (such as a transaction walking through its
// physical I/O program) are resumable state machines whose steps are
// continuations bound once and re-scheduled via station completion
// callbacks: scheduling a func that already exists allocates nothing, so a
// model that binds its continuations up front (each Station binds one
// completion per server) runs its steady state without garbage.
//
// The event calendar is an inlined typed binary heap rather than
// container/heap: Push/Pop through the standard interface box every event
// through interface{}, allocating once per scheduled event on the hottest
// path of the whole simulator. The typed heap keeps events in a reusable
// backing slice, so scheduling and dispatch are allocation-free in steady
// state (see BenchmarkEventCalendar).
package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Time is simulated time in seconds.
type Time = float64

type event struct {
	t   Time
	seq uint64 // FIFO tiebreaker for simultaneous events
	fn  func()
}

// before reports whether e fires before o: earlier time first, scheduling
// order breaking ties so simultaneous events run FIFO.
func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a typed binary min-heap of events. It deliberately does not
// implement container/heap's interface: the interface{} boxing on Push/Pop
// costs one allocation per event. The backing slice's capacity is reused
// across push/pop cycles, so a warmed-up calendar schedules without
// allocating.
type eventHeap []event

// push adds e, sifting it up to its heap position.
func (h *eventHeap) push(e event) {
	ev := append(*h, e)
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev[i].before(ev[p]) {
			break
		}
		ev[i], ev[p] = ev[p], ev[i]
		i = p
	}
	*h = ev
}

// pop removes and returns the earliest event. The vacated slot is zeroed so
// the calendar does not pin the event's closure for the garbage collector,
// and the slice is shrunk in place to keep its capacity.
func (h *eventHeap) pop() event {
	ev := *h
	top := ev[0]
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{}
	ev = ev[:n]
	// Sift the relocated last element down to restore heap order.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && ev[l].before(ev[least]) {
			least = l
		}
		if r < n && ev[r].before(ev[least]) {
			least = r
		}
		if least == i {
			break
		}
		ev[i], ev[least] = ev[least], ev[i]
		i = least
	}
	*h = ev
	return top
}

// Sim is a discrete-event simulator. Create one with New; it is not safe for
// concurrent use (the model is single-threaded by design so that runs are
// deterministic — parallel experiments give each goroutine its own Sim).
type Sim struct {
	now  Time
	cal  calendar
	seq  uint64
	seed int64
	nrun uint64 // events executed

	// streams memoizes named random streams: each name maps to one stream
	// for the lifetime of the Sim.
	streams map[string]*rand.Rand
}

// New returns a simulator whose random streams derive from seed, using the
// default (binary heap) event calendar.
func New(seed int64) *Sim {
	return &Sim{seed: seed, cal: &heapCalendar{}}
}

// NewWithCalendar returns a simulator using the named calendar
// implementation (CalendarHeap or CalendarWheel; "" selects the default
// heap). Every calendar dispatches in identical (time, seq) order, so the
// choice changes performance characteristics only — never the schedule.
func NewWithCalendar(seed int64, kind string) (*Sim, error) {
	cal, err := newCalendar(kind)
	if err != nil {
		return nil, err
	}
	return &Sim{seed: seed, cal: cal}, nil
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Executed returns the number of events executed so far.
func (s *Sim) Executed() uint64 { return s.nrun }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic("sim: scheduling event in the past")
	}
	s.seq++
	s.cal.push(event{t: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d seconds from now. Negative delays are clamped
// to zero.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Run executes events in time order until the calendar is empty or the next
// event is later than until. It returns the number of events executed.
func (s *Sim) Run(until Time) int {
	n := 0
	for {
		next, ok := s.cal.peek()
		if !ok || next.t > until {
			break
		}
		e := s.cal.pop()
		s.now = e.t
		e.fn()
		n++
		s.nrun++
	}
	if s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
	return n
}

// RunAll executes events until the calendar is empty.
func (s *Sim) RunAll() int { return s.Run(math.Inf(1)) }

// Step executes exactly one event, advancing the clock to it. It returns
// false if the calendar is empty. Drivers that stop on a condition other
// than time (a transaction count) step event by event.
func (s *Sim) Step() bool {
	if s.cal.len() == 0 {
		return false
	}
	e := s.cal.pop()
	s.now = e.t
	e.fn()
	s.nrun++
	return true
}

// Stream returns a deterministic random stream derived from the simulator
// seed and the given name. Distinct names give independent streams, so the
// workload a policy sees does not change when another component draws more
// or fewer random numbers. Streams are memoized per name: repeated calls
// return the same stream.
func (s *Sim) Stream(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name)) // errscan:ok hash.Hash.Write never returns an error
	r := rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
	if s.streams == nil {
		s.streams = make(map[string]*rand.Rand)
	}
	s.streams[name] = r
	return r
}

// Exp draws an exponential variate with the given mean.
func Exp(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}
