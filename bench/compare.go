package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// runRecord is one child run inside a result set (-out).
type runRecord struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// resultSet is the file -out writes and -compare reads.
type resultSet struct {
	Sessions int         `json:"sessions"`
	Seconds  float64     `json:"seconds"`
	Smoke    bool        `json:"smoke"`
	Runs     []runRecord `json:"runs"`
}

// runAll measures every workload, each run in a fresh child process so one
// workload's heap and scheduler state never reach the next, then prints
// median and min-max per metric.
func runAll(o options, traced bool, repeat int, out string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	set := resultSet{Sessions: o.sessions, Seconds: o.seconds, Smoke: o.smoke}
	ok := true
	for _, w := range workloads {
		kinds := make([]int, repeat)
		if traced {
			kinds = append(kinds, 1)
		}
		for _, trace := range kinds {
			rec, err := runChild(self, w, o, trace)
			if err != nil {
				return false, err
			}
			ok = ok && rec.Result.Correct
			set.Runs = append(set.Runs, rec)
		}
		summarize(os.Stdout, w.Name, set.Runs)
	}
	if out == "" {
		return ok, nil
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return false, err
	}
	return ok, os.WriteFile(out, b, 0o644)
}

// runChild re-executes this binary for one workload and parses the result
// from the last line of its standard output. A child that reports failed
// checks exits 1 but still prints its result, which is kept.
func runChild(self string, w workload, o options, trace int) (runRecord, error) {
	cmd := exec.Command(self,
		"-workload", w.Name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-sessions", strconv.Itoa(o.sessions),
		"-dir", o.dir,
		"-smoke="+strconv.FormatBool(o.smoke))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	rec := runRecord{Workload: w.Name, Trace: trace, Seed: o.seed}
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return rec, fmt.Errorf("%s: no result (%v): %v", w.Name, runErr, err)
	}
	if !rec.Result.Correct {
		os.Stdout.Write(stdout) // errscan:ok diagnostics: the failed checks the child printed
	}
	return rec, nil
}

// series collects, per metric, the values the runs of one workload at one
// trace level reported, in run order.
func series(runs []runRecord, workload string, trace int) map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range runs {
		if r.Workload == workload && r.Trace == trace {
			for name, v := range r.Result.Metrics {
				s[name] = append(s[name], v.Value)
			}
		}
	}
	return s
}

func summarize(out io.Writer, workload string, runs []runRecord) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "== %s\nmetric\tmedian\tmin\tmax\tunit\tn\n", workload)
	for trace, list := range [][]metric{endToEnd, perLayer} {
		s := series(runs, workload, trace)
		for _, m := range list {
			if xs := s[m.Name]; len(xs) > 0 {
				lo, hi := minMax(xs)
				fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.4f\t%s\t%d\n", m.Name, medianOfValues(xs), lo, hi, m.Unit, len(xs))
			}
		}
	}
	tw.Flush() // errscan:ok tabwriter over stdout; nothing to recover
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func medianOfValues(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max - min) / median: with the handful of repeats a result set
// holds, the full range is the honest width.
func spread(xs []float64) float64 {
	med := medianOfValues(xs)
	if med == 0 || len(xs) < 2 {
		return 0
	}
	lo, hi := minMax(xs)
	return (hi - lo) / math.Abs(med)
}

// verdict judges candidate b against baseline a for metric m: "regressed"
// when b's median is worse than a's by more than the bound, "unresolved"
// when it is not but either side's own spread is wider than the bound (the
// runs cannot tell), "ok" otherwise.
func verdict(m metric, a, b []float64) string {
	ma, mb := medianOfValues(a), medianOfValues(b)
	worse := mb - ma
	if m.Better == "higher" {
		worse = ma - mb
	}
	switch {
	case m.Unit == "hash" && ma != mb:
		return "regressed"
	case worse > m.Bound*math.Abs(ma):
		return "regressed"
	case m.Bound > 0 && math.Max(spread(a), spread(b)) > m.Bound:
		return "unresolved"
	}
	return "ok"
}

// compareFiles prints, per workload x gated metric, both medians, both
// spreads and the verdict, and reports whether anything regressed.
func compareFiles(out io.Writer, pathA, pathB string) (regressed bool, err error) {
	var a, b resultSet
	for _, f := range []struct {
		path string
		into *resultSet
	}{{pathA, &a}, {pathB, &b}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA spread\tB median\tB spread\tbound\tverdict")
	for _, w := range workloads {
		for trace, list := range [][]metric{endToEnd, perLayer} {
			sa, sb := series(a.Runs, w.Name, trace), series(b.Runs, w.Name, trace)
			for _, m := range list {
				xa, xb := sa[m.Name], sb[m.Name]
				if !m.Gated || len(xa) == 0 || len(xb) == 0 {
					continue
				}
				v := verdict(m, xa, xb)
				regressed = regressed || v == "regressed"
				fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.1f%%\t%.4f\t%.1f%%\t%s\t%s\n", w.Name, m.Name,
					medianOfValues(xa), spread(xa)*100, medianOfValues(xb), spread(xb)*100, boundText(m), v)
			}
		}
	}
	return regressed, tw.Flush()
}

// printMetrics is -list.
func printMetrics(out io.Writer) {
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tclock\tbetter\tbound\tlayer\tshould move")
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, m.Clock, m.Better, boundText(m), m.Layer, m.Moves)
		}
	}
	tw.Flush() // errscan:ok tabwriter over stdout; nothing to recover
}
