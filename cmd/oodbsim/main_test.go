package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"oodb"
)

// parse parses args with the flags main registers.
func parse(args ...string) (*cli, error) {
	fs := flag.NewFlagSet("oodbsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// parseRun parses -run followed by args, returning the flag set as main
// would hand it to singleRun.config.
func parseRun(t *testing.T, args ...string) singleRun {
	t.Helper()
	c, err := parse(append([]string{"-run"}, args...)...)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return *c.singleRun
}

// TestSingleRunConfig pins the flag → SimConfig mapping on both bases: the
// scaled default configuration, where every flag applies, and a tier, where
// only flags the user passed do and sizing/workload flags are refused.
func TestSingleRunConfig(t *testing.T) {
	defaultBase := func() oodb.SimConfig {
		c := oodb.DefaultSimConfig(0.05)
		c.Transactions = 3000 // the -txns default, not the config's
		return c
	}
	mediumBase := func() oodb.SimConfig {
		c, err := oodb.TierSimConfig("medium")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bases := []struct {
		tier string
		base func() oodb.SimConfig
	}{{"", defaultBase}, {"medium", mediumBase}}

	// Overlays that must land identically on either base.
	overlays := []struct {
		name string
		args []string
		want func(*oodb.SimConfig)
	}{
		{"none", nil, func(*oodb.SimConfig) {}},
		{"txns+seed", []string{"-txns", "1000", "-seed", "7"},
			func(c *oodb.SimConfig) { c.Transactions, c.Seed = 1000, 7 }},
		{"cluster", []string{"-cluster", "2_IO_limit"},
			func(c *oodb.SimConfig) { c.Cluster = oodb.PolicyIOLimit2 }},
		{"repl-paper", []string{"-repl", "Context"},
			func(c *oodb.SimConfig) { c.Replacement = oodb.ReplContext }},
		{"repl-registry", []string{"-repl", "clock"},
			func(c *oodb.SimConfig) { c.Replacement = "clock" }},
		{"aliases", []string{"-repl", "secondchance", "-strategy", "none", "-backend", "mem"},
			func(c *oodb.SimConfig) { c.Replacement, c.ClusterStrategy, c.Backend = "secondchance", "none", "mem" }},
		{"prefetch", []string{"-prefetch", "db"},
			func(c *oodb.SimConfig) { c.Prefetch = oodb.PrefetchWithinDB }},
		{"strategy", []string{"-strategy", "dstc"},
			func(c *oodb.SimConfig) { c.ClusterStrategy = "dstc" }},
		{"file-backend", []string{"-backend", "file", "-data-dir", "/tmp/d", "-fsync", "never"},
			func(c *oodb.SimConfig) { c.Backend, c.DataDir, c.Fsync = "file", "/tmp/d", "never" }},
		{"flash", []string{"-flash-factor", "8", "-flash-at", "10", "-flash-len", "20"},
			func(c *oodb.SimConfig) { c.FlashFactor, c.FlashAt, c.FlashLen = 8, 10, 20 }},
		{"warmup+no-locks", []string{"-warmup", "50", "-no-locks"},
			func(c *oodb.SimConfig) { c.Warmup, c.Locking = 50, false }},
	}
	for _, b := range bases {
		for _, o := range overlays {
			args := o.args
			if b.tier != "" {
				args = append([]string{"-tier", b.tier}, args...)
			}
			want := b.base()
			o.want(&want)
			got, err := parseRun(t, args...).config()
			if err != nil {
				t.Errorf("tier=%q %s: %v", b.tier, o.name, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("tier=%q %s:\n got %+v\nwant %+v", b.tier, o.name, got, want)
			}
		}
	}

	// Sizing and workload flags shape the default base only.
	want := oodb.DefaultSimConfig(0.2)
	want.Transactions, want.ReadWriteRatio = 3000, 100
	want.Density, _ = oodb.ParseDensity("high-10")
	want.Workload, want.OCB = "ocb", oodb.DefaultOCBParams()
	want.OCB.RefDist, _ = oodb.ParseOCBRefDist("zipf") // the -ocb-dist default
	want.OCB.ReadWriteRatio = 3
	s := parseRun(t, "-scale", "0.2", "-rw", "100", "-density", "high-10", "-workload", "ocb", "-ocb-rw", "3")
	if got, err := s.config(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("default base with sizing/workload flags: err=%v\n got %+v\nwant %+v", err, got, want)
	}

	// A tier refuses them, naming the flag.
	for f, v := range map[string]string{
		"scale": "0.2", "workload": "ocb", "density": "high-10", "rw": "5", "ocb-dist": "zipf",
		"ocb-refs": "3", "ocb-depth": "3", "ocb-scan": "10", "ocb-rw": "3", "ocb-tenants": "4",
		"ocb-skew": "3", "ocb-drift": "100",
	} {
		s := parseRun(t, "-tier", "medium", "-"+f, v)
		if _, err := s.config(); err == nil || !strings.Contains(err.Error(), "-"+f+" ") {
			t.Errorf("-tier medium -%s: got %v, want an error naming -%s", f, err, f)
		}
	}

	// -clients selects the concurrent driver on the same configuration;
	// -think and -rate shape its sessions and nothing else.
	for _, tc := range []struct {
		args []string
		cfg  func() oodb.SimConfig
		opt  oodb.ConcurrentOptions
	}{
		{[]string{"-clients", "16", "-think", "2ms"}, defaultBase,
			oodb.ConcurrentOptions{Sessions: 16, ThinkTime: 2 * time.Millisecond}},
		{[]string{"-clients", "8", "-rate", "5000", "-txns", "1000"},
			func() oodb.SimConfig { c := defaultBase(); c.Transactions = 1000; return c },
			oodb.ConcurrentOptions{Sessions: 8, ArrivalRate: 5000}},
		{[]string{"-tier", "medium", "-clients", "4"}, mediumBase, oodb.ConcurrentOptions{Sessions: 4}},
	} {
		s := parseRun(t, tc.args...)
		cfg, err := s.config()
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
		} else if !reflect.DeepEqual(cfg, tc.cfg()) || s.concurrentOptions() != tc.opt {
			t.Errorf("%q:\n got %+v %+v\nwant %+v %+v", tc.args, cfg, s.concurrentOptions(), tc.cfg(), tc.opt)
		}
	}

	for name, args := range map[string][]string{
		"unknown tier":     {"-tier", "huge"},
		"unknown repl":     {"-repl", "fifo"},
		"unknown strategy": {"-strategy", "magic"},
		"unknown cluster":  {"-cluster", "fancy"},
	} {
		if _, err := parseRun(t, args...).config(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// refusesScale fails t unless every -scale value at or below 0 (and NaN) is
// refused on the given mode's command line, naming -scale.
func refusesScale(t *testing.T, mode ...string) {
	t.Helper()
	for _, v := range []string{"0", "-0.5", "NaN"} {
		args := append(append([]string(nil), mode...), "-scale", v)
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "-scale ") {
			t.Errorf("%q: got %v, want an error naming -scale", args, err)
		}
	}
}

// TestRunRefusesNonPositiveScale: -run -scale 0 would otherwise build the
// full 3.06 M-object paper database (DefaultConfig's reading of 0).
func TestRunRefusesNonPositiveScale(t *testing.T) {
	refusesScale(t, "-run")
	refusesScale(t, "-run", "-clients", "2")
}

// TestExperimentRefusesNonPositiveScale: -fig 5.2 -scale 0 would otherwise
// run at the experiment default of 0.02.
func TestExperimentRefusesNonPositiveScale(t *testing.T) {
	refusesScale(t, "-fig", "5.2")
	refusesScale(t, "-all")
}

// TestOCBFlagsRefuseSubstitutedValues: each of these values used to run
// with the flag's default in its place (-ocb-depth -3 printed what no
// -ocb-depth printed). Zero still means the default.
func TestOCBFlagsRefuseSubstitutedValues(t *testing.T) {
	for _, tc := range []struct {
		flag string
		bad  []string
	}{
		{"-ocb-refs", []string{"-2"}},
		{"-ocb-depth", []string{"-3"}},
		{"-ocb-scan", []string{"-1"}},
		{"-ocb-rw", []string{"-0.5", "NaN"}},
		{"-ocb-tenants", []string{"-4"}},
		{"-ocb-drift", []string{"-7"}},
		{"-ocb-skew", []string{"0.5", "1", "-3", "NaN"}},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			base := []string{"-run", "-workload", "ocb", "-ocb-tenants", "4"}
			for _, v := range tc.bad {
				args := append(append([]string(nil), base...), tc.flag, v)
				if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
					t.Errorf("%q: got %v, want an error naming %s", args, err, tc.flag)
				}
			}
			ok := append(append([]string(nil), base...), tc.flag, "0")
			if _, err := parse(ok...); err != nil {
				t.Errorf("%q: %v; 0 means the default", ok, err)
			}
		})
	}
}

// TestOCBFlagsRefusedUnderOCT: the OCT workload reads no -ocb-* flag, so a
// run given one would print what the run without it prints. Each is
// refused by name unless -workload ocb.
func TestOCBFlagsRefusedUnderOCT(t *testing.T) {
	values := map[string]string{
		"ocb-dist": "uniform", "ocb-refs": "3", "ocb-depth": "5", "ocb-scan": "10",
		"ocb-rw": "2", "ocb-tenants": "4", "ocb-skew": "3", "ocb-drift": "100",
	}
	fs := flag.NewFlagSet("oodbsim", flag.ContinueOnError)
	runFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := values[f.Name]; strings.HasPrefix(f.Name, "ocb-") && !ok {
			t.Errorf("-%s has no case here", f.Name)
		}
	})
	for name, v := range values {
		t.Run(name, func(t *testing.T) {
			for _, base := range [][]string{{"-run"}, {"-run", "-workload", "oct"}} {
				args := append(append([]string(nil), base...), "-"+name, v)
				if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
					t.Errorf("%q: got %v, want an error naming -%s", args, err, name)
				}
			}
			ok := []string{"-run", "-workload", "ocb", "-" + name, v}
			if _, err := parse(ok...); err != nil {
				t.Errorf("%q: %v", ok, err)
			}
		})
	}
}

// TestRefusedFlags pins that a flag the chosen mode would ignore is refused
// at parse time, before any world is built, with an error naming it.
func TestRefusedFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		// Run-only flags without -run.
		{[]string{"-fig", "5.5", "-scale", "0.005", "-txns", "100", "-backend", "file", "-tier", "medium", "-cluster", "bogus"}, "-backend"},
		{[]string{"-fig", "5.5", "-tier", "medium"}, "-tier"},
		{[]string{"-fig", "5.5", "-cluster", "bogus"}, "-cluster"},
		{[]string{"-table", "5.1", "-clients", "4"}, "-clients"},
		{[]string{"-all", "-warmup", "10"}, "-warmup"},
		{[]string{"-exp", "ocb.policies", "-no-locks"}, "-no-locks"},
		{[]string{"-list", "-ocb-rw", "3"}, "-ocb-rw"},
		{[]string{"-recover", "d", "-data-dir", "d"}, "-data-dir"},
		// Experiment-only flags with -run.
		{[]string{"-run", "-json"}, "-json"},
		{[]string{"-run", "-reps", "5"}, "-reps"},
		{[]string{"-run", "-parallel", "3"}, "-parallel"},
		{[]string{"-run", "-v"}, "-v"},
		{[]string{"-run", "-ckpt-dir", "d"}, "-ckpt-dir"},
		{[]string{"-run", "-clients", "4", "-json"}, "-json"},
		// Concurrent-only flags without -clients, and bad -clients.
		{[]string{"-run", "-think", "2ms"}, "-think"},
		{[]string{"-run", "-rate", "5000"}, "-rate"},
		{[]string{"-run", "-clients", "0"}, "-clients"},
		{[]string{"-run", "-clients", "-3", "-think", "1ms"}, "-clients"},
		// Trace record/replay and object locking are serial-only.
		{[]string{"-run", "-clients", "4", "-record", "t.trc"}, "-record"},
		{[]string{"-run", "-clients", "4", "-no-locks"}, "-no-locks"},
		{[]string{"-run", "-clients", "4", "-replay", "t.trc"}, "-replay"},
		{[]string{"-run", "-record", "a.trc", "-replay", "b.trc"}, "-record"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%q: got %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}

	// What each mode does read is accepted.
	for _, args := range [][]string{
		{"-fig", "5.5", "-scale", "0.005", "-txns", "100", "-seed", "3", "-workload", "ocb", "-json", "-reps", "2", "-parallel", "1", "-v", "-ckpt-dir", "d"},
		{"-run", "-clients", "4", "-think", "1ms", "-rate", "100", "-warmup", "5", "-tier", "medium", "-cluster", "No_limit"},
		{"-run", "-record", "t.trc", "-warmup", "5", "-no-locks"},
		{"-wal-digest-at", "3", "-data-dir", "d"},
		{"-list", "-cpuprofile", "cpu.pb.gz"},
	} {
		if _, err := parse(args...); err != nil {
			t.Errorf("%q refused: %v", args, err)
		}
	}
}

// designCommand matches a backticked `oodbsim …` or `cmd/oodbsim …`
// command in DESIGN.md and captures its arguments.
var designCommand = regexp.MustCompile("`(?:cmd/)?oodbsim ([^`]+)`")

// TestReadmeCommands parses every `go run ./cmd/oodbsim` line in the README
// and every backticked oodbsim command in DESIGN.md with the real flag set,
// so neither document can drift from the flags: each must be accepted, and
// each -run command must map onto a valid configuration. Nothing is run.
func TestReadmeCommands(t *testing.T) {
	var readme, design []string
	for _, line := range strings.Split(readDoc(t, "README.md"), "\n") {
		if cmd, ok := strings.CutPrefix(strings.TrimSpace(line), "go run ./cmd/oodbsim "); ok {
			cmd, _, _ = strings.Cut(cmd, "#")
			readme = append(readme, cmd)
		}
	}
	for _, m := range designCommand.FindAllStringSubmatch(readDoc(t, "DESIGN.md"), -1) {
		design = append(design, m[1])
	}
	for _, doc := range []struct {
		name string
		cmds []string
		min  int
	}{{"README.md", readme, 10}, {"DESIGN.md", design, 20}} {
		if len(doc.cmds) < doc.min {
			t.Errorf("found %d oodbsim commands in %s, want at least %d", len(doc.cmds), doc.name, doc.min)
		}
		for _, cmd := range doc.cmds {
			args := strings.Fields(cmd)
			c, err := parse(args...)
			if err == nil && c.single {
				var cfg oodb.SimConfig
				if cfg, err = c.config(); err == nil {
					err = cfg.Validate()
				}
			}
			if err != nil {
				t.Errorf("%s: %q: %v", doc.name, args, err)
			}
		}
	}
}

// readDoc returns the repository document name.
func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
