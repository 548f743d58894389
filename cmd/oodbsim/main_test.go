package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"oodb"
)

// parseRun parses args with the -run flag set main registers, returning the
// flag set as main would hand it to singleRun.config.
func parseRun(t *testing.T, args ...string) singleRun {
	t.Helper()
	fs := flag.NewFlagSet("oodbsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s := runFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	s.markExplicit(fs)
	return *s
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
			func(c *oodb.SimConfig) { c.ReplacementName = "clock" }},
		{"prefetch", []string{"-prefetch", "db"},
			func(c *oodb.SimConfig) { c.Prefetch = oodb.PrefetchWithinDB }},
		{"strategy", []string{"-strategy", "dstc"},
			func(c *oodb.SimConfig) { c.ClusterStrategy = "dstc" }},
		{"file-backend", []string{"-backend", "file", "-data-dir", "/tmp/d", "-fsync", "never"},
			func(c *oodb.SimConfig) { c.Backend, c.DataDir, c.Fsync = "file", "/tmp/d", "never" }},
		{"flash", []string{"-flash-factor", "8", "-flash-at", "10", "-flash-len", "20"},
			func(c *oodb.SimConfig) { c.FlashFactor, c.FlashAt, c.FlashLen = 8, 10, 20 }},
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
