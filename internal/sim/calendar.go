package sim

import (
	"fmt"
	"math/bits"
)

// The event calendar sits behind a small interface so two implementations
// can coexist: the typed binary heap (the reference — simple, provably
// ordered, and the default) and a hierarchical timing wheel that keeps
// per-event cost flat as the pending-event population grows from tens (the
// paper's 10 users) to hundreds of thousands (the large scale tier).
//
// Both implementations deliver the identical dispatch order — earlier time
// first, scheduling sequence breaking ties — which the differential and
// fuzz tests in calendar_test.go pin down event for event. Schedules are
// therefore byte-identical no matter which calendar runs them; the wheel is
// purely a complexity play: O(1) amortized insert and pop against the
// heap's O(log n), with n = pending events, at the cost of a coarse
// time-bucketing pass.

// Calendar implementation names accepted by NewWithCalendar and
// engine configuration.
const (
	// CalendarHeap is the typed binary min-heap: the reference
	// implementation and the default at small event populations.
	CalendarHeap = "heap"
	// CalendarWheel is the hierarchical timing wheel: constant-time
	// scheduling for large event populations (the medium/large scale
	// tiers).
	CalendarWheel = "wheel"
)

// CalendarKinds lists the registered calendar implementations.
func CalendarKinds() []string { return []string{CalendarHeap, CalendarWheel} }

// calendar is the event-calendar seam. Implementations must dispatch in
// exact (time, seq) order; peek and pop may amortize their positioning work
// but must agree with each other between mutations.
type calendar interface {
	push(e event)
	// pop removes and returns the earliest event; it must only be called
	// when len() > 0.
	pop() event
	// peek returns the earliest event without removing it; ok is false when
	// the calendar is empty.
	peek() (e event, ok bool)
	len() int
}

// newCalendar resolves a calendar kind; "" means the heap default.
func newCalendar(kind string) (calendar, error) {
	switch kind {
	case "", CalendarHeap:
		return &heapCalendar{}, nil
	case CalendarWheel:
		return newWheel(defaultWheelTick), nil
	}
	return nil, fmt.Errorf("sim: unknown calendar %q (have %v)", kind, CalendarKinds())
}

// heapCalendar adapts the typed binary heap to the calendar seam.
type heapCalendar struct {
	h eventHeap
}

func (c *heapCalendar) push(e event) { c.h.push(e) }
func (c *heapCalendar) pop() event   { return c.h.pop() }
func (c *heapCalendar) peek() (event, bool) {
	if len(c.h) == 0 {
		return event{}, false
	}
	return c.h[0], true
}
func (c *heapCalendar) len() int { return len(c.h) }

// --- Hierarchical timing wheel -------------------------------------------

const (
	// wheelBits is the log2 slot count per level; wheelLevels levels cover
	// 2^(wheelBits*wheelLevels) ticks before the overflow list takes over.
	// 4 levels x 256 slots at the default 1 ms tick span ~50 simulated
	// days — overflow is effectively never touched by the engine's
	// workloads (think times are seconds).
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4

	// defaultWheelTick is the level-0 bucket width in simulated seconds.
	// Correctness does not depend on it (buckets re-sort by exact time and
	// sequence); it only tunes how many events share a bucket. 1 ms sits
	// between the CPU service quantum (1 ms) and the disk service time
	// (25 ms).
	defaultWheelTick = 1e-3

	// wheelMaxTick saturates the tick of absurdly large times so the
	// float->uint64 conversion stays defined; saturated events coexist in
	// the overflow list and re-sort exactly on drain.
	wheelMaxTick = uint64(1) << 62
)

// wheelCalendar is a hierarchical (cascading) timing wheel. Events hash
// into fixed-width time buckets: level 0 buckets are one tick wide, each
// higher level is wheelSlots times coarser. The cursor sweeps level 0;
// entering a higher-level slot cascades its bucket down. Buckets are
// unordered until drained — the current bucket is insertion-sorted by exact
// (time, seq) — so dispatch order is identical to the heap's even though
// the wheel quantizes time.
//
// Steady-state scheduling and dispatch are allocation-free: bucket slices
// and the current-bucket scratch swap capacity back and forth rather than
// reallocating.
type wheelCalendar struct {
	tick float64
	inv  float64

	// curTick is the absolute tick of the bucket currently being drained
	// (cur). All undelivered events have tick >= curTick; events with tick
	// == curTick live in cur, everything later in the wheel or overflow.
	curTick uint64
	cur     []event // current bucket, sorted ascending by event.before
	curIdx  int     // next event in cur to deliver

	slots [wheelLevels][wheelSlots][]event
	occ   [wheelLevels][wheelSlots / 64]uint64 // per-level occupancy bitmaps
	count [wheelLevels]int

	// overflow holds events beyond the wheel horizon, unordered; when the
	// wheel drains it rebases onto the earliest of them.
	overflow []event

	size int // pending events across cur, slots, and overflow
}

func newWheel(tick float64) *wheelCalendar {
	if tick <= 0 {
		tick = defaultWheelTick
	}
	return &wheelCalendar{tick: tick, inv: 1 / tick}
}

func (w *wheelCalendar) tickFor(t Time) uint64 {
	x := t * w.inv
	if x != x || x >= float64(wheelMaxTick) { // NaN-safe saturation
		return wheelMaxTick
	}
	if x < 0 {
		return 0
	}
	return uint64(x)
}

func (w *wheelCalendar) len() int { return w.size }

func (w *wheelCalendar) push(e event) {
	w.size++
	w.place(e)
}

// place routes e to the current bucket, a wheel slot, or the overflow list.
// The level is the lowest one whose span (relative to curTick) contains the
// event's tick; events at curTick itself join the sorted current bucket.
func (w *wheelCalendar) place(e event) {
	tk := w.tickFor(e.t)
	if tk <= w.curTick {
		// At or before the drain position. tk < curTick is legal: a peek
		// can advance the cursor to a future bucket before the clock gets
		// there, and a later schedule may land in the gap. The event joins
		// the sorted working set, which always drains before the wheel
		// (every wheel event has tick > curTick, hence a strictly later
		// time than anything bucketed at or below it).
		w.insertCur(e)
		return
	}
	diff := tk ^ w.curTick
	for l := 0; l < wheelLevels; l++ {
		if diff>>(wheelBits*(l+1)) == 0 {
			slot := int((tk >> (wheelBits * l)) & wheelMask)
			w.slots[l][slot] = append(w.slots[l][slot], e)
			w.occ[l][slot>>6] |= 1 << (slot & 63)
			w.count[l]++
			return
		}
	}
	w.overflow = append(w.overflow, e)
}

// insertCur inserts e into the sorted current bucket. Events inserted while
// the bucket drains are always >= every already-delivered entry (time never
// runs backwards and sequence numbers grow), so the insertion point is at
// or after curIdx.
func (w *wheelCalendar) insertCur(e event) {
	c := append(w.cur, e)
	i := len(c) - 1
	for i > w.curIdx && e.before(c[i-1]) {
		c[i] = c[i-1]
		i--
	}
	c[i] = e
	w.cur = c
}

// settle positions the current bucket on the earliest pending event. It
// returns false when the calendar is empty.
func (w *wheelCalendar) settle() bool {
	for {
		if w.curIdx < len(w.cur) {
			return true
		}
		// Current bucket exhausted: recycle its capacity and advance.
		w.cur = w.cur[:0]
		w.curIdx = 0
		if w.size == 0 {
			return false
		}
		w.advance()
	}
}

func (w *wheelCalendar) peek() (event, bool) {
	if !w.settle() {
		return event{}, false
	}
	return w.cur[w.curIdx], true
}

func (w *wheelCalendar) pop() event {
	if !w.settle() {
		panic("sim: pop from empty calendar")
	}
	e := w.cur[w.curIdx]
	w.cur[w.curIdx] = event{} // release the closure for the GC
	w.curIdx++
	w.size--
	return e
}

// advance moves curTick to the next non-empty bucket, filling cur (sorted).
// It terminates because every iteration either fills cur, drains a
// higher-level slot downward (strictly reducing events above level 0), or
// rebases onto the overflow list.
func (w *wheelCalendar) advance() {
	for {
		if len(w.cur) > 0 {
			return // a cascade redistributed events into the current tick
		}
		if w.count[0] > 0 {
			// Level-0 events always sit strictly after the cursor's slot in
			// the current window, so a forward scan finds the next bucket.
			slot, ok := scanAfter(&w.occ[0], int(w.curTick&wheelMask))
			if !ok {
				panic("sim: timing wheel level-0 occupancy out of sync")
			}
			w.curTick = (w.curTick &^ wheelMask) | uint64(slot)
			w.takeSlot(slot)
			return
		}
		cascaded := false
		for l := 1; l < wheelLevels; l++ {
			if w.count[l] == 0 {
				continue
			}
			idx := int((w.curTick >> (wheelBits * l)) & wheelMask)
			slot, ok := scanAfter(&w.occ[l], idx)
			if !ok {
				panic("sim: timing wheel occupancy out of sync")
			}
			shift := uint(wheelBits * l)
			base := w.curTick >> (shift + wheelBits) << (shift + wheelBits)
			w.curTick = base | uint64(slot)<<shift
			w.redistribute(l, slot)
			cascaded = true
			break
		}
		if cascaded {
			continue
		}
		w.rebase()
	}
}

// takeSlot swaps the level-0 bucket into the current-bucket scratch and
// sorts it by exact (time, seq). The swap trades capacities, so the drain
// cycle stops allocating once both slices have grown to their working size.
func (w *wheelCalendar) takeSlot(slot int) {
	b := w.slots[0][slot]
	w.slots[0][slot] = w.cur[:0]
	w.occ[0][slot>>6] &^= 1 << (slot & 63)
	w.count[0] -= len(b)
	sortEvents(b)
	w.cur = b
	w.curIdx = 0
}

// redistribute drains a higher-level slot, re-placing each event relative
// to the advanced cursor: strictly lower levels or the current bucket.
func (w *wheelCalendar) redistribute(l, slot int) {
	b := w.slots[l][slot]
	w.occ[l][slot>>6] &^= 1 << (slot & 63)
	w.count[l] -= len(b)
	for i := range b {
		w.place(b[i])
		b[i] = event{}
	}
	w.slots[l][slot] = b[:0]
}

// rebase jumps the cursor to the earliest overflow event and folds every
// overflow event now within the horizon back into the wheel. It runs only
// when the wheel proper is empty — with the default tick that means the
// schedule jumped ~50 simulated days, so the linear scan is irrelevant to
// steady-state cost.
func (w *wheelCalendar) rebase() {
	if len(w.overflow) == 0 {
		panic("sim: timing wheel size out of sync (empty wheel, empty overflow)")
	}
	min := 0
	for i := 1; i < len(w.overflow); i++ {
		if w.overflow[i].before(w.overflow[min]) {
			min = i
		}
	}
	w.curTick = w.tickFor(w.overflow[min].t)
	pending := w.overflow
	kept := 0
	for i := range pending {
		e := pending[i]
		tk := w.tickFor(e.t)
		if tk > w.curTick && (tk^w.curTick)>>(wheelBits*wheelLevels) != 0 {
			pending[kept] = e
			kept++
			continue
		}
		w.place(e) // lands in cur or the wheel, never back in overflow
	}
	for i := kept; i < len(pending); i++ {
		pending[i] = event{}
	}
	w.overflow = pending[:kept]
}

// clear drops every pending event and rewinds the cursor, leaving the wheel
// as newWheel built it.
func (w *wheelCalendar) clear() {
	for l := 0; l < wheelLevels; l++ {
		for s := range w.slots[l] {
			b := w.slots[l][s]
			for i := range b {
				b[i] = event{}
			}
			w.slots[l][s] = b[:0]
		}
		for i := range w.occ[l] {
			w.occ[l][i] = 0
		}
		w.count[l] = 0
	}
	for i := range w.cur {
		w.cur[i] = event{}
	}
	w.cur = w.cur[:0]
	w.curIdx = 0
	for i := range w.overflow {
		w.overflow[i] = event{}
	}
	w.overflow = w.overflow[:0]
	w.curTick = 0
	w.size = 0
}

// scanAfter returns the lowest set bit strictly greater than from in a
// wheelSlots-wide bitmap.
func scanAfter(bm *[wheelSlots / 64]uint64, from int) (int, bool) {
	from++
	if from >= wheelSlots {
		return 0, false
	}
	word := from >> 6
	rem := bm[word] >> (from & 63) << (from & 63)
	for {
		if rem != 0 {
			return word<<6 + bits.TrailingZeros64(rem), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		rem = bm[word]
	}
}

// sortEvents insertion-sorts a bucket by exact (time, seq). Buckets are one
// tick wide, so they are small (a handful of events at the paper's scale,
// tens at 100k users); insertion sort beats sort.Slice here and allocates
// nothing.
func sortEvents(ev []event) {
	for i := 1; i < len(ev); i++ {
		e := ev[i]
		j := i
		for j > 0 && e.before(ev[j-1]) {
			ev[j] = ev[j-1]
			j--
		}
		ev[j] = e
	}
}
