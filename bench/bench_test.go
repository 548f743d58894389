package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"oodb/internal/engine"
)

func smokeOptions(t *testing.T) options {
	return options{seed: 7, sessions: 2, dir: t.TempDir(), smoke: true}
}

// TestBenchmarkJSON: BENCHMARK.json and the tables in this package say the
// same thing, within the limits the benchmark contract sets.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Fatalf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q / %q", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, table %+v", kind, i, g, m)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name/unit %q %q", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Clock == "" || m.Layer == "" || m.Moves == "" || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: %s lacks clock, layer, direction or interaction", kind, m.Name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s: %s bound %v vs %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if m.Name != "setup_s" && m.Bound > endToEnd[0].Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %v", m.Name, m.Bound)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads at 1/100 size, untraced and
// traced (which includes the probes), and requires every declared metric
// exactly once, finite, with the end-to-end ones non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		o := smokeOptions(t)
		for _, traced := range []bool{false, true} {
			res, failures, err := measure(w, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(failures) != 0 {
				t.Fatalf("%s traced=%v: %+v %v", w.Name, traced, res, failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
					t.Errorf("%s: %s = %+v (present %v)", w.Name, m.Name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.Name, m.Name, v.Value)
				}
			}
			if !traced {
				continue
			}
			got := func(n string) float64 { return res.Metrics[n].Value }
			// The workloads stress the layers they were chosen for.
			for _, n := range []string{"storage.commit_ms", "storage.mutate_ms", "storage.page_read_ms", "wal_bytes_per_commit", "recover_s"} {
				if (got(n) > 0) != w.File {
					t.Errorf("%s: %s = %v on a workload with File=%v", w.Name, n, got(n), w.File)
				}
			}
			if w.Name == "ocb-durable" && got("storage.fsyncs_per_commit") != 1 {
				t.Errorf("ocb-durable: %v fsyncs per commit, want exactly 1", got("storage.fsyncs_per_commit"))
			}
			if w.Name == "ocb-wal" && got("storage.fsyncs_per_commit") != 0 {
				t.Errorf("ocb-wal: %v fsyncs per commit, want 0", got("storage.fsyncs_per_commit"))
			}
			if (got("sim_resp_ms") > 0) != w.Serial || (got("sim.events_per_s") > 0) != w.Serial {
				t.Errorf("%s: simulated-clock metrics present=%v, Serial=%v", w.Name, got("sim_resp_ms") > 0, w.Serial)
			}
			if got("core.construct_place_us") <= 0 || got("engine.residual_ms") <= 0 {
				t.Errorf("%s: construct_place_us %v residual_ms %v", w.Name, got("core.construct_place_us"), got("engine.residual_ms"))
			}
			if _, err := os.Stat(o.dir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		if left, _ := os.ReadDir(o.dir); len(left) != 1 { // only the trace file stays
			t.Errorf("%s left %d entries in the data directory", w.Name, len(left))
		}
	}
}

// TestSameSeedSameCounts: at one session nothing is scheduled by the host,
// so the same seed gives identical digests and identical counters twice.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range workloads {
		o := smokeOptions(t)
		o.sessions = 1
		a, err := runRound(w, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRound(w, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.logical != b.logical || a.final != b.final || a.completed != b.completed {
			t.Errorf("%s: digests %x/%x vs %x/%x", w.Name, a.logical, a.final, b.logical, b.final)
		}
		for n, x := range a.vals {
			if m, ok := findMetric(n); ok && m.repeats() && b.vals[n] != x {
				t.Errorf("%s: %s = %v then %v", w.Name, n, x, b.vals[n])
			}
		}
	}
}

// TestWrongDigestFails corrupts the oracle: the serial reference and the
// concurrent run are handed different traversal depths, so the digests must
// differ, the result must say so, and the command must not report success.
func TestWrongDigestFails(t *testing.T) {
	w, _ := findWorkload("ocb-hot")
	base, calls := w.config, 0
	w.config = func() engine.Config {
		c := base()
		if calls++; calls > 1 {
			c.OCB.Depth = 1
		}
		return c
	}
	res, failures, err := measure(w, smokeOptions(t), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || len(failures) == 0 || !strings.Contains(failures[0], "oracle") {
		t.Fatalf("corrupted oracle went unnoticed: %+v %v", res, failures)
	}
}

func TestVerdicts(t *testing.T) {
	ops := metric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	resp := metric{Name: "sim_resp_ms", Better: "lower"} // exact
	for _, c := range []struct {
		m    metric
		a, b []float64
		want string
	}{
		{ops, []float64{100, 101, 99}, []float64{97, 98, 96}, "ok"},
		{ops, []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{ops, []float64{100, 120, 90}, []float64{97, 98, 96}, "unresolved"},
		{ops, []float64{100, 101, 99}, []float64{150, 151, 149}, "ok"},
		{resp, []float64{12.5}, []float64{12.5}, "ok"},
		{resp, []float64{12.5}, []float64{12.5000001}, "regressed"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(ops float64) string {
		set := resultSet{Runs: []runRecord{{Workload: "ocb-hot", Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]value{"ops_per_s": {ops, "1/s"}}}}}}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		f := t.TempDir() + "/set.json"
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return f
	}
	var out bytes.Buffer
	if bad, err := compareFiles(&out, write(100), write(99)); err != nil || bad {
		t.Fatalf("1%% slower: regressed=%v err=%v", bad, err)
	}
	if bad, err := compareFiles(&out, write(100), write(70)); err != nil || !bad {
		t.Fatalf("30%% slower: regressed=%v err=%v\n%s", bad, err, out.String())
	}
}
