package main

import (
	"reflect"
	"strings"
	"testing"

	"oodb"
)

// flagDefaults is the -run flag set as main leaves it when the user passes
// nothing: every field at its flag default, no flag marked explicit.
func flagDefaults() singleRun {
	return singleRun{
		scale: 0.05, txns: 3000, seed: 1,
		density: "med-5", rw: 10, cluster: "No_limit", repl: "LRU", prefetch: "none",
		workload: "oct", ocbDist: "zipf",
		set: map[string]bool{},
	}
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
		pass func(*singleRun) // sets the field and marks the flag explicit
		want func(*oodb.SimConfig)
	}{
		{"none", func(*singleRun) {}, func(*oodb.SimConfig) {}},
		{"txns+seed",
			func(s *singleRun) { s.txns, s.seed = 1000, 7; s.set["txns"], s.set["seed"] = true, true },
			func(c *oodb.SimConfig) { c.Transactions, c.Seed = 1000, 7 }},
		{"cluster",
			func(s *singleRun) { s.cluster = "2_IO_limit"; s.set["cluster"] = true },
			func(c *oodb.SimConfig) { c.Cluster = oodb.PolicyIOLimit2 }},
		{"repl-paper",
			func(s *singleRun) { s.repl = "Context"; s.set["repl"] = true },
			func(c *oodb.SimConfig) { c.Replacement = oodb.ReplContext }},
		{"repl-registry",
			func(s *singleRun) { s.repl = "clock"; s.set["repl"] = true },
			func(c *oodb.SimConfig) { c.ReplacementName = "clock" }},
		{"prefetch",
			func(s *singleRun) { s.prefetch = "db"; s.set["prefetch"] = true },
			func(c *oodb.SimConfig) { c.Prefetch = oodb.PrefetchWithinDB }},
		{"strategy",
			func(s *singleRun) { s.strategy = "dstc"; s.set["strategy"] = true },
			func(c *oodb.SimConfig) { c.ClusterStrategy = "dstc" }},
		{"file-backend",
			func(s *singleRun) {
				s.backend, s.dataDir, s.fsync = "file", "/tmp/d", "never"
				s.set["backend"], s.set["data-dir"], s.set["fsync"] = true, true, true
			},
			func(c *oodb.SimConfig) { c.Backend, c.DataDir, c.Fsync = "file", "/tmp/d", "never" }},
		{"flash",
			func(s *singleRun) {
				s.flashFactor, s.flashAt, s.flashLen = 8, 10, 20
				s.set["flash-factor"], s.set["flash-at"], s.set["flash-len"] = true, true, true
			},
			func(c *oodb.SimConfig) { c.FlashFactor, c.FlashAt, c.FlashLen = 8, 10, 20 }},
	}
	for _, b := range bases {
		for _, o := range overlays {
			s := flagDefaults()
			s.tier = b.tier
			o.pass(&s)
			want := b.base()
			o.want(&want)
			got, err := s.config()
			if err != nil {
				t.Errorf("tier=%q %s: %v", b.tier, o.name, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("tier=%q %s:\n got %+v\nwant %+v", b.tier, o.name, got, want)
			}
		}
	}

	// Sizing and workload flags shape the default base only.
	s := flagDefaults()
	s.scale, s.rw, s.density = 0.2, 100, "high-10"
	s.workload, s.ocbRW = "ocb", 3
	want := oodb.DefaultSimConfig(0.2)
	want.Transactions, want.ReadWriteRatio = 3000, 100
	want.Density, _ = oodb.ParseDensity("high-10")
	want.Workload, want.OCB = "ocb", oodb.DefaultOCBParams()
	want.OCB.RefDist, _ = oodb.ParseOCBRefDist("zipf") // the -ocb-dist default
	want.OCB.ReadWriteRatio = 3
	if got, err := s.config(); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("default base with sizing/workload flags: err=%v\n got %+v\nwant %+v", err, got, want)
	}

	// A tier refuses them, naming the flag.
	for _, f := range []string{"scale", "workload", "density", "rw", "ocb-dist", "ocb-refs", "ocb-depth",
		"ocb-scan", "ocb-rw", "ocb-tenants", "ocb-skew", "ocb-drift"} {
		s := flagDefaults()
		s.tier = "medium"
		s.set[f] = true
		if _, err := s.config(); err == nil || !strings.Contains(err.Error(), "-"+f+" ") {
			t.Errorf("-tier medium -%s: got %v, want an error naming -%s", f, err, f)
		}
	}

	for name, mutate := range map[string]func(*singleRun){
		"unknown tier":     func(s *singleRun) { s.tier = "huge" },
		"unknown repl":     func(s *singleRun) { s.repl = "fifo" },
		"unknown strategy": func(s *singleRun) { s.strategy = "magic" },
		"unknown cluster":  func(s *singleRun) { s.cluster = "fancy" },
	} {
		s := flagDefaults()
		mutate(&s)
		if _, err := s.config(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
