package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestTallyEmpty(t *testing.T) {
	var ta Tally
	if ta.N() != 0 || ta.Mean() != 0 || ta.Var() != 0 || ta.StdDev() != 0 {
		t.Fatalf("empty tally not zeroed: %v", ta.String())
	}
	if ta.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestTallyBasic(t *testing.T) {
	var ta Tally
	for _, x := range []float64{1, 2, 3, 4, 5} {
		ta.Add(x)
	}
	if ta.N() != 5 {
		t.Fatalf("N=%d", ta.N())
	}
	if !almost(ta.Mean(), 3, 1e-12) {
		t.Fatalf("mean=%v", ta.Mean())
	}
	if !almost(ta.Var(), 2.5, 1e-12) {
		t.Fatalf("var=%v", ta.Var())
	}
	if ta.Min() != 1 || ta.Max() != 5 {
		t.Fatalf("min/max %v %v", ta.Min(), ta.Max())
	}
	if ta.Sum() != 15 {
		t.Fatalf("sum=%v", ta.Sum())
	}
}

func TestTallySingleSample(t *testing.T) {
	var ta Tally
	ta.Add(7)
	if ta.Var() != 0 || ta.StdDev() != 0 {
		t.Fatal("variance of one sample must be 0")
	}
	if ta.Min() != 7 || ta.Max() != 7 || ta.Mean() != 7 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestTallyNegativeValues(t *testing.T) {
	var ta Tally
	ta.Add(-3)
	ta.Add(-1)
	if ta.Min() != -3 || ta.Max() != -1 {
		t.Fatalf("min/max with negatives: %v %v", ta.Min(), ta.Max())
	}
	if !almost(ta.Mean(), -2, 1e-12) {
		t.Fatalf("mean=%v", ta.Mean())
	}
}

func TestTallyPercentiles(t *testing.T) {
	var ta Tally
	for i := 1; i <= 100; i++ {
		ta.Add(float64(i))
	}
	if p := ta.Percentile(0); p != 1 {
		t.Fatalf("p0=%v", p)
	}
	if p := ta.Percentile(100); p != 100 {
		t.Fatalf("p100=%v", p)
	}
	if p := ta.Percentile(50); !almost(p, 50.5, 1e-9) {
		t.Fatalf("p50=%v", p)
	}
	if p := ta.Percentile(95); !almost(p, 95.05, 1e-9) {
		t.Fatalf("p95=%v", p)
	}
}

func TestMomentsTallyRetainsNothing(t *testing.T) {
	mt := NewMomentsTally()
	var full Tally
	for i := 0; i < 1000; i++ {
		x := float64(i%37) * 1.5
		mt.Add(x)
		full.Add(x)
	}
	if len(mt.keep) != 0 {
		t.Fatalf("moments tally retained %d samples", len(mt.keep))
	}
	if mt.Mean() != full.Mean() || mt.Var() != full.Var() ||
		mt.Min() != full.Min() || mt.Max() != full.Max() || mt.N() != full.N() {
		t.Fatal("moments diverge from retain-all tally")
	}
	if mt.Percentile(95) != 0 {
		t.Fatal("moments tally percentile should report 0")
	}
}

// Property: mean and variance match a reference computation for arbitrary
// sample sets.
func TestTallyMatchesReference(t *testing.T) {
	f := func(xs []float64) bool {
		var ta Tally
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			ta.Add(x)
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return ta.N() == 0
		}
		sum := 0.0
		for _, x := range clean {
			sum += x
		}
		mean := sum / float64(len(clean))
		if !almost(ta.Mean(), mean, 1e-6*(1+math.Abs(mean))) {
			return false
		}
		if len(clean) >= 2 {
			v := 0.0
			for _, x := range clean {
				v += (x - mean) * (x - mean)
			}
			v /= float64(len(clean) - 1)
			if !almost(ta.Var(), v, 1e-4*(1+v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Set(2, 0)
	w.Set(4, 10) // 2 for [0,10)
	w.Set(0, 20) // 4 for [10,20)
	// mean over [0,30): (2*10 + 4*10 + 0*10)/30 = 2
	if m := w.Mean(30); !almost(m, 2, 1e-12) {
		t.Fatalf("mean=%v", m)
	}
	if w.Max() != 4 {
		t.Fatalf("max=%v", w.Max())
	}
	if w.Value() != 0 {
		t.Fatalf("value=%v", w.Value())
	}
}

func TestTimeWeightedAdd(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 0)
	w.Add(3, 5)
	w.Add(-1, 10)
	if w.Value() != 2 {
		t.Fatalf("value=%v", w.Value())
	}
	// [0,5)=0, [5,10)=3, [10,15)=2 -> mean = (0+15+10)/15
	if m := w.Mean(15); !almost(m, 25.0/15, 1e-12) {
		t.Fatalf("mean=%v", m)
	}
}

func TestTimeWeightedBeforeStart(t *testing.T) {
	var w TimeWeighted
	if w.Mean(10) != 0 {
		t.Fatal("mean before any Set should be 0")
	}
	w.Set(5, 10)
	if w.Mean(10) != 0 {
		t.Fatal("zero-duration mean should be 0")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 3, 4, 10, -2} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total=%d", h.Total())
	}
	// -2 clamps to 0.
	if h.Count(0) != 2 || h.Count(1) != 2 || h.Count(2) != 0 || h.Count(3) != 1 {
		t.Fatalf("bucket counts wrong: %v", h.buckets)
	}
	if h.Count(100) != 2 { // overflow (4 and 10)
		t.Fatalf("overflow=%d", h.Count(100))
	}
	if s := h.RangeShare(0, 3); !almost(s, 5.0/7, 1e-12) {
		t.Fatalf("share(0,3)=%v", s)
	}
	if s := h.RangeShare(0, 100); !almost(s, 1, 1e-12) {
		t.Fatalf("share all = %v", s)
	}
}

// Property: RangeShare over disjoint covering ranges sums to 1.
func TestHistogramSharePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(16)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Add(rng.Intn(30))
		}
		total := h.RangeShare(0, 3) + h.RangeShare(4, 10) + h.RangeShare(11, 1<<30)
		if !almost(total, 1, 1e-9) {
			t.Fatalf("partition sums to %v", total)
		}
	}
}
