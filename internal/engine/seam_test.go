package engine

import (
	"fmt"
	"reflect"
	"testing"

	"oodb/internal/core"
	"oodb/internal/model"
	"oodb/internal/workload"
)

// seamConfig is a tiny but complete run for exercising the layer seams.
func seamConfig() Config {
	cfg := DefaultConfig(0.01)
	cfg.Transactions = 150
	return cfg
}

// TestRegistrySelectedStack drives a full simulation through the same path
// the CLI flags use: replacement policy and clustering strategy chosen by
// registry name instead of by enum.
func TestRegistrySelectedStack(t *testing.T) {
	cfg := seamConfig()
	cfg.ReplacementName = "clock"
	cfg.ClusterStrategy = "noop"
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.tuner != nil {
		// noop is the affinity clusterer pinned to No_Cluster; the adaptive
		// extension must not be able to switch it into clustering.
		t.Fatal("noop strategy must not expose a policy tuner")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < cfg.Transactions {
		t.Fatalf("completed %d of %d transactions", res.Completed, cfg.Transactions)
	}
	if res.Cluster.Moves != 0 || res.Cluster.Splits != 0 {
		t.Fatalf("noop strategy moved/split: %+v", res.Cluster)
	}
	if err := e.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestNoopIsAffinityNoCluster: "noop" is the paper's No_Cluster policy, so a
// run under it equals a run of the affinity clusterer pinned to
// PolicyNoCluster in every result but the configuration — on OCT and on a
// write-enabled OCB stream, with locking on. noop keeps the default
// candidate-pool policy in its Config: the strategy must ignore it.
func TestNoopIsAffinityNoCluster(t *testing.T) {
	t.Parallel()
	writes := quickOCBConfig(300)
	writes.OCB.ReadWriteRatio = 2
	for name, base := range map[string]Config{"oct": quickConfig(300), "ocb-write": writes} {
		t.Run(name, func(t *testing.T) {
			base.Locking = true
			noop := base
			noop.ClusterStrategy = "noop"
			affinity := base
			affinity.ClusterStrategy = "affinity"
			affinity.Cluster = core.PolicyNoCluster
			a, b := run(t, noop), run(t, affinity)
			if name == "ocb-write" && a.WriteTxns == 0 {
				t.Fatal("write-enabled stream completed no writes")
			}
			if !reflect.DeepEqual(stripped(a), stripped(b)) {
				t.Fatalf("noop diverged from affinity/No_Cluster:\n%v\n%v", a, b)
			}
		})
	}
}

// TestRegistryRejectsUnknownNames covers the Validate path the CLIs rely on.
func TestRegistryRejectsUnknownNames(t *testing.T) {
	cfg := seamConfig()
	cfg.ReplacementName = "no-such-policy"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown replacement name accepted")
	}
	cfg = seamConfig()
	cfg.ClusterStrategy = "no-such-strategy"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown cluster strategy accepted")
	}
}

// TestEveryDriverReportsEveryLayer: the serial engine, the concurrent engine
// at one and four sessions, and the library all report every layer's own
// statistics — pool, cluster, log, locks when they take any, durability on
// the file backend — and the cluster statistics count the run's placements
// only, construction's having been reset. The engines run an OCB write mix;
// the library, which has no generator, makes the same kinds of writes as
// calls.
func TestEveryDriverReportsEveryLayer(t *testing.T) {
	t.Parallel()
	base := quickOCBConfig(300)
	base.OCB.ReadWriteRatio = 2
	for _, backend := range []string{"memory", "file"} {
		t.Run(backend, func(t *testing.T) {
			mk := func() Config {
				if backend == "file" {
					return fileConfig(t, base, "never")
				}
				return base
			}
			// Each insert places one object; an update that resizes its
			// target (a rewire onto itself is one) places it again.
			check := func(driver string, r ResultCore, locks bool, inserts, replaces int) {
				t.Helper()
				if r.Pool.Hits+r.Pool.Misses == 0 {
					t.Errorf("%s: no pool accesses", driver)
				}
				if r.Log.Records == 0 {
					t.Errorf("%s: no log records", driver)
				}
				if locks && r.Locks.Requests == 0 {
					t.Errorf("%s: no lock requests with locking on", driver)
				}
				if durable := r.Durability.Committed > 0 && r.Durability.WALAppends > 0; durable != (backend == "file") {
					t.Errorf("%s: durability %+v on the %s backend", driver, r.Durability, backend)
				}
				if p := r.Cluster.Placements; p == 0 || p < inserts || p > inserts+replaces {
					t.Errorf("%s: %d placements for %d inserts and at most %d re-placements", driver, p, inserts, replaces)
				}
			}
			checkEngine := func(driver string, r ResultCore) {
				t.Helper()
				k := r.KindCount
				check(driver, r, true, k["ocb-insert"], k["ocb-update"]+k["ocb-rewire"])
			}

			s := run(t, mk())
			checkEngine("serial", s.ResultCore)
			for _, n := range []int{1, 4} {
				c, err := NewConcurrent(mk(), ConcurrentOptions{Sessions: n})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run()
				if err == nil {
					err = c.CheckInvariants()
				}
				if cerr := c.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				checkEngine(fmt.Sprintf("concurrent/%d", n), res.ResultCore)
			}

			// The library: a root and forty components under it (objects
			// 1..41), ten rewires that give a component a component of its
			// own, ten deletes, then a read of every object.
			l, ty := openTestLibrary(t, mk())
			script := []workload.Op{{Kind: workload.QInsert, NewType: ty}}
			for i := 0; i < 40; i++ {
				script = append(script, workload.Op{Kind: workload.QInsert, NewType: ty, AttachTo: 1})
			}
			for id := model.ObjectID(2); id < 12; id++ {
				script = append(script,
					workload.Op{Kind: workload.QStructUpdate, Target: id + 20, AttachTo: id},
					workload.Op{Kind: workload.QDelete, Target: id + 10})
			}
			for i, op := range script {
				if err := applyLibrary(l, op); err != nil {
					t.Fatalf("library step %d (%v): %v", i, op.Kind, err)
				}
			}
			for id := model.ObjectID(1); id <= 41; id++ {
				if err := l.Read(id); err != nil {
					t.Fatal(err)
				}
			}
			check("library", l.Results(), false, 41, 0)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
