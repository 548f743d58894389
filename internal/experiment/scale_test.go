package experiment

import (
	"testing"

	"oodb/internal/sim"
)

// TestCalendarRenderIdentical is the figure-level byte-identity gate for the
// event calendar: fig5.2 (clustering sweep) and, in long mode, fig6.1 (the
// 2^8 factorial batch) must render byte-identically under every calendar —
// and match the committed goldens, so the wheel cannot move a published
// number even in concert with a golden regeneration. The reference render
// is the default calendar, the heap; the loop covers the others.
func TestCalendarRenderIdentical(t *testing.T) {
	for _, c := range goldenCases(testing.Short()) {
		for _, kind := range sim.CalendarKinds() {
			if kind == sim.CalendarHeap {
				continue
			}
			opt := c.opt
			opt.Workers = 2
			opt.Calendar = kind
			assertMatchesPlain(t, c, "calendar "+kind, opt)
		}
	}
}
