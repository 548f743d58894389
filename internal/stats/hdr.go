package stats

import "math/bits"

// Hist is an HDR-style log-linear latency histogram: fixed memory, constant-
// time recording, and quantile queries with bounded relative error — the
// shape load generators need, where retaining every sample of a
// million-transaction run is off the table and a reservoir's tail accuracy
// collapses exactly at the p999 the run is measuring.
//
// Values (microseconds, by convention) land in buckets of 1/histSub relative
// width: values below histSub get exact unit buckets, larger values split
// each power of two into histSub linear sub-buckets, so any quantile comes
// back within ~1/histSub (≈3%) of the true sample. Histograms merge by
// bucket-wise addition, exactly — per-session histograms fold into one run
// summary with no approximation beyond the shared bucket grid.
//
// A Hist is not goroutine-safe; give each session its own and Merge.
// The zero value is ready to use.
type Hist struct {
	counts [histBucketCount]uint64
	n      uint64
	min    int64
	max    int64
}

const (
	// histSubBits fixes the sub-bucket resolution: 2^5 = 32 linear
	// sub-buckets per power of two, ~3% worst-case relative error.
	histSubBits = 5
	histSub     = 1 << histSubBits

	// histMaxBits bounds the representable value at 2^62-ish; in
	// microseconds that is ~146k years of latency, comfortably "any value".
	histMaxBits       = 62
	histBucketCount   = histSub + (histMaxBits-histSubBits)*histSub
	histMaxRecordable = int64(1)<<histMaxBits - 1
)

// histIndex maps a value to its bucket.
func histIndex(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	sub := int(u>>(uint(exp)-histSubBits)) - histSub
	return histSub + (exp-histSubBits)*histSub + sub
}

// histValue returns the midpoint of bucket i — the representative value
// quantile queries report.
func histValue(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := uint((i-histSub)/histSub) + histSubBits
	sub := int64((i - histSub) % histSub)
	lo := int64(1)<<exp + sub<<(exp-histSubBits)
	return lo + int64(1)<<(exp-histSubBits)/2
}

// Record adds one sample. Negative values clamp to zero, values beyond the
// representable range clamp to the top bucket; both keep Record total.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if v > histMaxRecordable {
		v = histMaxRecordable
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.counts[histIndex(v)]++
	h.n++
}

// Merge folds o into h, bucket-wise.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// N returns the number of samples recorded.
func (h *Hist) N() int64 { return int64(h.n) }

// Min returns the smallest recorded sample (exact), or 0 if empty.
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (exact), or 0 if empty.
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q in [0,1]: the bucket midpoint
// holding the ceil(q·n)-th smallest sample, clamped to the exact observed
// min/max so Quantile(0) and Quantile(1) are exact.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := histValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Mean returns the approximate sample mean (bucket midpoints).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for i, c := range h.counts {
		if c != 0 {
			sum += float64(histValue(i)) * float64(c)
		}
	}
	return sum / float64(h.n)
}
