package stats

// Serializable state for the statistics primitives. Every field of the
// running accumulators is captured exactly (sums, retained samples, the
// time-weighted integral), so a restored accumulator continues producing
// bit-identical summaries — the property the engine's checkpoint/restore
// machinery is built on.

// TallyState is the serializable state of a Tally.
type TallyState struct {
	N         int
	Sum, Sum2 float64
	Min, Max  float64
	Keep      []float64
	Moments   bool
}

// Snapshot extracts the tally's complete state. The Keep slice is copied,
// so the snapshot stays valid while the tally keeps accumulating.
func (t *Tally) Snapshot() TallyState {
	return TallyState{
		N: t.n, Sum: t.sum, Sum2: t.sum2, Min: t.min, Max: t.max,
		Keep: append([]float64(nil), t.keep...), Moments: t.moments,
	}
}

// Restore overwrites the tally with a snapshot.
func (t *Tally) Restore(s TallyState) error {
	t.n, t.sum, t.sum2, t.min, t.max = s.N, s.Sum, s.Sum2, s.Min, s.Max
	t.keep = append(t.keep[:0], s.Keep...)
	t.moments = s.Moments
	return nil
}

// TimeWeightedState is the serializable state of a TimeWeighted tracker.
type TimeWeightedState struct {
	Last, LastT float64
	Area        float64
	Start       float64
	Started     bool
	MaxValue    float64
}

// Snapshot extracts the tracker's complete state.
func (w *TimeWeighted) Snapshot() TimeWeightedState {
	return TimeWeightedState{
		Last: w.last, LastT: w.lastT, Area: w.area,
		Start: w.start, Started: w.started, MaxValue: w.maxValue,
	}
}

// Restore overwrites the tracker with a snapshot.
func (w *TimeWeighted) Restore(s TimeWeightedState) error {
	w.last, w.lastT, w.area = s.Last, s.LastT, s.Area
	w.start, w.started, w.maxValue = s.Start, s.Started, s.MaxValue
	return nil
}
