// Package stats provides the small set of statistics primitives used by the
// simulation and the experiment harness: tallied samples (for response
// times), time-weighted averages (for queue lengths and utilizations), and
// fixed-bucket histograms (for fan-out densities).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Tally accumulates point samples and reports summary statistics.
// The zero value is ready to use and retains every sample for exact
// percentile queries — O(samples) memory, 8 bytes each. NewMomentsTally
// retains none. Moments (count, mean, variance, min, max) are exact in both
// shapes.
type Tally struct {
	n       int
	sum     float64
	sum2    float64
	min     float64
	max     float64
	keep    []float64 // retained samples for percentiles, unless moments
	moments bool      // retain no samples
}

// NewMomentsTally returns a Tally that retains no samples: exact mean,
// variance, min, and max in constant memory; percentiles report 0. The
// shape used by per-station statistics, which never report percentiles.
func NewMomentsTally() Tally { return Tally{moments: true} }

// Add records one sample.
func (t *Tally) Add(x float64) {
	if t.n == 0 || x < t.min {
		t.min = x
	}
	if t.n == 0 || x > t.max {
		t.max = x
	}
	t.n++
	t.sum += x
	t.sum2 += x * x
	if !t.moments {
		t.keep = append(t.keep, x)
	}
}

// N returns the number of samples recorded.
func (t *Tally) N() int { return t.n }

// Sum returns the sum of all samples.
func (t *Tally) Sum() float64 { return t.sum }

// Mean returns the sample mean, or 0 if no samples were recorded.
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Var returns the unbiased sample variance, or 0 for fewer than two samples.
func (t *Tally) Var() float64 {
	if t.n < 2 {
		return 0
	}
	m := t.Mean()
	v := (t.sum2 - float64(t.n)*m*m) / float64(t.n-1)
	if v < 0 {
		return 0 // numeric noise
	}
	return v
}

// StdDev returns the sample standard deviation.
func (t *Tally) StdDev() float64 { return math.Sqrt(t.Var()) }

// Min returns the smallest sample, or 0 if empty.
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest sample, or 0 if empty.
func (t *Tally) Max() float64 { return t.max }

// Percentile returns the p-th percentile (0 <= p <= 100) of the retained
// samples using nearest-rank interpolation. It returns 0 if no samples were
// retained.
func (t *Tally) Percentile(p float64) float64 {
	if len(t.keep) == 0 {
		return 0
	}
	s := make([]float64, len(t.keep))
	copy(s, t.keep)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// String summarizes the tally.
func (t *Tally) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		t.n, t.Mean(), t.StdDev(), t.min, t.max)
}

// TimeWeighted tracks a piecewise-constant value over simulated time and
// reports its time average, e.g. queue length or buffer occupancy.
type TimeWeighted struct {
	last     float64 // current value
	lastT    float64 // time of last change
	area     float64 // integral of value dt
	start    float64
	started  bool
	maxValue float64
}

// Set records that the tracked value changed to v at time now.
func (w *TimeWeighted) Set(v, now float64) {
	if !w.started {
		w.start = now
		w.started = true
	} else {
		w.area += w.last * (now - w.lastT)
	}
	w.last = v
	w.lastT = now
	if v > w.maxValue {
		w.maxValue = v
	}
}

// Add adjusts the tracked value by delta at time now.
func (w *TimeWeighted) Add(delta, now float64) { w.Set(w.last+delta, now) }

// Value returns the current value.
func (w *TimeWeighted) Value() float64 { return w.last }

// Max returns the maximum value observed.
func (w *TimeWeighted) Max() float64 { return w.maxValue }

// Mean returns the time average of the value from the first Set through now.
func (w *TimeWeighted) Mean(now float64) float64 {
	if !w.started || now <= w.start {
		return 0
	}
	return (w.area + w.last*(now-w.lastT)) / (now - w.start)
}

// Histogram counts samples in fixed integer buckets [0, n) with an overflow
// bucket for values >= n.
type Histogram struct {
	buckets  []int
	overflow int
	total    int
}

// NewHistogram returns a histogram with n integer buckets.
func NewHistogram(n int) *Histogram {
	return &Histogram{buckets: make([]int, n)}
}

// Add records an integer sample.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		h.overflow++
	} else {
		h.buckets[v]++
	}
	h.total++
}

// Count returns the number of samples recorded in bucket v, or the overflow
// count if v is outside the bucket range.
func (h *Histogram) Count(v int) int {
	if v < 0 || v >= len(h.buckets) {
		return h.overflow
	}
	return h.buckets[v]
}

// Total returns the total number of samples.
func (h *Histogram) Total() int { return h.total }

// RangeShare returns the fraction of samples with lo <= value <= hi.
// The overflow bucket is included when hi >= len(buckets).
func (h *Histogram) RangeShare(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	n := 0
	for v := lo; v <= hi && v < len(h.buckets); v++ {
		if v >= 0 {
			n += h.buckets[v]
		}
	}
	if hi >= len(h.buckets) {
		n += h.overflow
	}
	return float64(n) / float64(h.total)
}
