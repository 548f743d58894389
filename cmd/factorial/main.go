// Command factorial runs the paper's Section 6 two-level factorial
// analysis: 2^8 simulation runs over the eight control parameters, ranked
// absolute effects (Figure 6.1), and pairwise interaction classification
// (Figure 6.2).
//
// Usage:
//
//	factorial               # both figures
//	factorial -fig 6.1
//	factorial -scale 0.02 -txns 1000 -parallel 8 -v
package main

import (
	"flag"
	"fmt"
	"os"

	"oodb"
)

func main() {
	var (
		fig   = flag.String("fig", "", "figure to print: 6.1 or 6.2 (default both)")
		scale = flag.Float64("scale", 0.02, "database/buffer scale")
		txns  = flag.Int("txns", 1000, "measured transactions per run")
		seed  = flag.Int64("seed", 1, "random seed")
		par   = flag.Int("parallel", 0, "worker pool size for the 2^8 factorial runs (0 = GOMAXPROCS, 1 = serial)")
		verb  = flag.Bool("v", false, "print per-run progress (256 runs, concurrency-safe)")

		replLow  = flag.String("repl-low", "", "override the replacement factor's low level by registry name (default LRU)")
		replHigh = flag.String("repl-high", "", "override the replacement factor's high level by registry name (default context-sensitive)")
		strategy = flag.String("strategy", "", "clustering strategy for every run, by registry name (default affinity)")
		wl       = flag.String("workload", "oct", "workload driving every run: oct | ocb")
	)
	flag.Parse()

	for _, name := range []string{*replLow, *replHigh} {
		if name != "" && !oodb.HasReplacementPolicy(name) {
			fmt.Fprintf(os.Stderr, "factorial: unknown replacement policy %q (registered: %v)\n",
				name, oodb.ReplacementPolicies())
			os.Exit(2)
		}
	}
	if *strategy != "" && !oodb.HasClusterStrategy(*strategy) {
		fmt.Fprintf(os.Stderr, "factorial: unknown cluster strategy %q (registered: %v)\n",
			*strategy, oodb.ClusterStrategies())
		os.Exit(2)
	}

	opt := oodb.ExperimentOptions{
		Scale: *scale, Transactions: *txns, Seed: *seed, Workers: *par,
		ReplacementLow: *replLow, ReplacementHigh: *replHigh, ClusterStrategy: *strategy,
	}
	if *wl != "oct" {
		opt.Workload = *wl
	}
	if *verb {
		opt.Verbose = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	ids := []string{"fig6.1", "fig6.2"}
	switch *fig {
	case "":
	case "6.1":
		ids = ids[:1]
	case "6.2":
		ids = ids[1:]
	default:
		fmt.Fprintf(os.Stderr, "factorial: unknown figure %q (want 6.1 or 6.2)\n", *fig)
		os.Exit(2)
	}
	for _, id := range ids {
		t, err := oodb.RunExperiment(id, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "factorial:", err)
			os.Exit(1)
		}
		fmt.Println(t.Render())
	}
}
