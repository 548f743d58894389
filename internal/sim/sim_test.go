package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	n := s.RunAll()
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order=%v", order)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("now=%v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.RunAll()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	s := New(1)
	var hits []Time
	s.After(1, func() {
		hits = append(hits, s.Now())
		s.After(2, func() { hits = append(hits, s.Now()) })
	})
	s.RunAll()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("hits=%v", hits)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.At(5, func() {})
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(1, func() { ran++ })
	s.At(10, func() { ran++ })
	n := s.Run(5)
	if n != 1 || ran != 1 {
		t.Fatalf("Run(5) executed %d", n)
	}
	if s.Now() != 5 {
		t.Fatalf("now=%v, want clamp to until", s.Now())
	}
	if s.cal.len() != 1 {
		t.Fatalf("pending=%d", s.cal.len())
	}
	s.RunAll()
	if ran != 2 {
		t.Fatal("remaining event not run")
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-5, func() { fired = true })
	s.RunAll()
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

func TestStreamsIndependentAndDeterministic(t *testing.T) {
	a1 := New(42).Stream("a")
	a2 := New(42).Stream("a")
	b := New(42).Stream("b")
	same, diff := true, false
	for i := 0; i < 32; i++ {
		x, y, z := a1.Int63(), a2.Int63(), b.Int63()
		if x != y {
			same = false
		}
		if x != z {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed+name must replay identically")
	}
	if !diff {
		t.Fatal("different names must give different streams")
	}
}

func TestExp(t *testing.T) {
	r := New(7).Stream("exp")
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := Exp(r, 4)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-4) > 0.2 {
		t.Fatalf("exp mean=%v, want ~4", mean)
	}
	if Exp(r, 0) != 0 || Exp(r, -1) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

func TestStationFCFSSingleServer(t *testing.T) {
	s := New(1)
	st := NewStation(s, "disk", 1)
	var done []int
	var times []Time
	for i := 0; i < 3; i++ {
		i := i
		st.Request(10, func() {
			done = append(done, i)
			times = append(times, s.Now())
		})
	}
	s.RunAll()
	if len(done) != 3 {
		t.Fatalf("done=%v", done)
	}
	for i := 0; i < 3; i++ {
		if done[i] != i {
			t.Fatalf("not FCFS: %v", done)
		}
		if want := Time(10 * (i + 1)); times[i] != want {
			t.Fatalf("completion %d at %v, want %v", i, times[i], want)
		}
	}
	if st.MeanWait() != 10 { // waits 0,10,20 -> mean 10
		t.Fatalf("mean wait %v", st.MeanWait())
	}
}

func TestStationMultiServer(t *testing.T) {
	s := New(1)
	st := NewStation(s, "cpu", 2)
	var times []Time
	for i := 0; i < 4; i++ {
		st.Request(10, func() { times = append(times, s.Now()) })
	}
	s.RunAll()
	// Two at t=10, two at t=20.
	if times[0] != 10 || times[1] != 10 || times[2] != 20 || times[3] != 20 {
		t.Fatalf("times=%v", times)
	}
}

// TestStationServerSlots: each server's completion finishes the request
// that server holds. A queued request takes whichever server frees first.
func TestStationServerSlots(t *testing.T) {
	s := New(1)
	st := NewStation(s, "cpu", 2)
	var order []string
	var times []Time
	for _, r := range []struct {
		name    string
		service Time
	}{{"a", 30}, {"b", 10}, {"c", 10}} {
		st.Request(r.service, func() {
			order = append(order, r.name)
			times = append(times, s.Now())
		})
	}
	s.RunAll()
	if got := strings.Join(order, ""); got != "bca" || times[0] != 10 || times[1] != 20 || times[2] != 30 {
		t.Fatalf("completions %q at %v, want \"bca\" at [10 20 30]", got, times)
	}
}

// TestStationCycleAllocs: with a callback bound once, a request's trip
// through the queue, a server and its completion allocates nothing.
func TestStationCycleAllocs(t *testing.T) {
	s := New(1)
	st := NewStation(s, "disk", 2)
	n := 0
	done := func() { n++ }
	cycle := func() {
		for i := 0; i < 3; i++ { // one request queues behind the two servers
			st.Request(0.01, done)
		}
		s.RunAll()
	}
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("station cycle allocates %v times, want 0", a)
	}
	if n != 3*202 {
		t.Fatalf("%d completions, want %d", n, 3*202)
	}
}

func TestStationUtilization(t *testing.T) {
	s := New(1)
	st := NewStation(s, "d", 1)
	st.Request(10, nil)
	s.RunAll()
	// Busy 10 of 10 seconds.
	if u := st.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Fatalf("util=%v", u)
	}
	if st.arrivals != 1 || st.busy != 0 || len(st.queue) != 0 {
		t.Fatal("station counters wrong after drain")
	}
}

func TestStationZeroService(t *testing.T) {
	s := New(1)
	st := NewStation(s, "d", 1)
	fired := false
	st.Request(-3, func() { fired = true }) // clamps to 0
	s.RunAll()
	if !fired || s.Now() != 0 {
		t.Fatalf("zero-service request mishandled: now=%v", s.Now())
	}
}

// The typed heap must dispatch any scheduling pattern in nondecreasing
// (time, seq) order — exercised with an adversarial random insert mix.
func TestHeapOrderingRandomized(t *testing.T) {
	s := New(1)
	r := rand.New(rand.NewSource(7))
	var fired []Time
	var schedule func(depth int)
	schedule = func(depth int) {
		// Nested scheduling stresses pop-then-push interleavings.
		if depth > 0 && r.Intn(3) == 0 {
			s.After(r.Float64(), func() { fired = append(fired, s.Now()); schedule(depth - 1) })
			return
		}
		s.After(r.Float64()*10, func() { fired = append(fired, s.Now()) })
	}
	for i := 0; i < 500; i++ {
		schedule(3)
	}
	s.RunAll()
	if len(fired) < 500 {
		t.Fatalf("fired %d events", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// The calendar's backing slice must be reused rather than reallocated once
// it has grown to the model's working set.
func TestHeapCapacityReuse(t *testing.T) {
	s := New(1)
	for i := 0; i < 64; i++ {
		s.After(float64(i), func() {})
	}
	s.RunAll()
	h := s.cal.(*heapCalendar)
	grown := cap(h.h)
	if grown < 64 {
		t.Fatalf("cap=%d after 64 events", grown)
	}
	// A second wave of the same size must fit in the retained capacity.
	for i := 0; i < 64; i++ {
		s.After(float64(i), func() {})
	}
	if cap(h.h) != grown {
		t.Fatalf("cap grew from %d to %d on reuse", grown, cap(h.h))
	}
	s.RunAll()
}

// Popped slots must not pin completed closures: the tail slot is zeroed.
func TestHeapReleasesClosures(t *testing.T) {
	s := New(1)
	for i := 0; i < 8; i++ {
		s.After(float64(i), func() {})
	}
	s.RunAll()
	h := s.cal.(*heapCalendar).h
	for i, e := range h[:cap(h)] {
		if e.fn != nil {
			t.Fatalf("slot %d still holds a closure after drain", i)
		}
	}
}

// Deterministic replay: the same model run twice executes the same number
// of events at the same final time.
func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, Time) {
		s := New(99)
		st := NewStation(s, "d", 2)
		r := s.Stream("load")
		var gen func()
		n := 0
		gen = func() {
			if n >= 500 {
				return
			}
			n++
			st.Request(Exp(r, 0.05), func() { s.After(Exp(r, 0.1), gen) })
		}
		for i := 0; i < 5; i++ {
			gen()
		}
		s.RunAll()
		return s.Executed(), s.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("replay diverged: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}
