// Command loadgen drives the concurrent multi-session engine: N client
// goroutines submitting OCT or OCB transactions against one shared buffer
// pool, lock table, and storage backend, measuring wall-clock throughput
// and latency percentiles.
//
// Usage:
//
//	loadgen -clients 16 -txns 20000                  # closed loop, saturation
//	loadgen -clients 16 -think 2ms                   # closed loop, think time
//	loadgen -clients 16 -rate 5000                   # open loop, 5000 txn/s aggregate
//	loadgen -clients 8 -workload ocb -ocb-dist zipf  # OCB traversal mix
//	loadgen -clients 8 -workload ocb -ocb-rw 3       # OCB with 1 write per 3 reads
//	loadgen -clients 16 -cpuprofile cpu.pb.gz        # profile the contention
//
// Closed loop (-think, the default shape) models interactive sessions: each
// client sleeps an exponential think time between transactions. Open loop
// (-rate) schedules intended arrival instants and measures latency from the
// intended arrival, so a saturated system reports its queueing delay
// honestly instead of suppressing arrivals (no coordinated omission).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"oodb"
	"oodb/internal/obs"
)

func main() {
	var (
		clients = flag.Int("clients", 8, "concurrent client sessions")
		txns    = flag.Int("txns", 10000, "transactions to complete (total, across clients)")
		warmup  = flag.Int("warmup", 0, "leading transactions excluded from latency statistics")
		scale   = flag.Float64("scale", 0.05, "database/buffer scale relative to the paper's 500 MB / 1000 frames")
		seed    = flag.Int64("seed", 1, "random seed for the per-session workload streams")
		think   = flag.Duration("think", 0, "closed loop: mean exponential think time between a client's transactions (0 = back-to-back)")
		rate    = flag.Float64("rate", 0, "open loop: aggregate arrival rate in txn/s (overrides -think)")

		wl       = flag.String("workload", "oct", "workload: oct (the paper's model) | ocb (synthetic object-base benchmark)")
		rw       = flag.Float64("rw", 10, "oct workload: read/write ratio")
		ocbDist  = flag.String("ocb-dist", "zipf", "ocb workload: reference distribution (uniform | zipf | clustered)")
		ocbRW    = flag.Float64("ocb-rw", 0, "ocb workload: reads per write (0 = read-only, the default)")
		ocbTen   = flag.Int("ocb-tenants", 0, "ocb workload: tenants sharing the object base under zipf-skewed traffic (0 = single tenant)")
		ocbSkew  = flag.Float64("ocb-skew", 0, "ocb workload: tenant zipf skew, > 1 (0 = default 2)")
		ocbDrift = flag.Int("ocb-drift", 0, "ocb workload: working-set drift period in operations (0 = stationary)")

		backend  = flag.String("backend", "", "storage backend (memory | file; default memory)")
		dataDir  = flag.String("data-dir", "", "data directory for -backend file (write-ahead log + page file)")
		fsyncPol = flag.String("fsync", "", "WAL fsync policy for -backend file (always | interval | never; default always)")

		repl     = flag.String("repl", "LRU", "replacement policy: paper name (LRU | Context | Random) or any registered policy")
		noLocks  = flag.Bool("no-locks", false, "disable object-granularity locking (structure guard still serializes writes)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		quantOut = flag.Bool("q", false, "print only the one-line summary")
	)
	flag.Parse()

	cfg := oodb.DefaultSimConfig(*scale)
	cfg.Transactions = *txns
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.ReadWriteRatio = *rw
	cfg.Locking = !*noLocks
	cfg.Backend = *backend
	cfg.DataDir = *dataDir
	cfg.Fsync = *fsyncPol
	if *wl != "oct" {
		cfg.Workload = *wl
		cfg.OCB = oodb.DefaultOCBParams()
		var err error
		if cfg.OCB.RefDist, err = oodb.ParseOCBRefDist(*ocbDist); err != nil {
			fatal(err)
		}
		if *ocbRW > 0 {
			cfg.OCB.ReadWriteRatio = *ocbRW
		}
		if *ocbTen > 0 {
			cfg.OCB.Tenants = *ocbTen
		}
		if *ocbSkew > 0 {
			cfg.OCB.TenantSkew = *ocbSkew
		}
		if *ocbDrift > 0 {
			cfg.OCB.DriftPeriod = *ocbDrift
		}
	}
	if err := oodb.SetReplacement(&cfg, *repl); err != nil {
		fatal(err)
	}

	opt := oodb.ConcurrentOptions{
		Sessions:    *clients,
		ThinkTime:   *think,
		ArrivalRate: *rate,
	}

	stopProfiles, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	res, err := oodb.RunConcurrentLoad(cfg, opt)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fatal(err)
	}

	fmt.Println(res.String())
	if *quantOut {
		return
	}
	fmt.Printf("  latency: mean=%s p50=%s p90=%s p99=%s p999=%s max=%s (n=%d)\n",
		us(int64(res.Latency.Mean())), us(res.Latency.Quantile(0.50)),
		us(res.Latency.Quantile(0.90)), us(res.Latency.Quantile(0.99)),
		us(res.Latency.Quantile(0.999)), us(res.Latency.Max()), res.Latency.N())
	fmt.Printf("  logical: ops=%d not-found=%d  physical: reads=%d writes=%d log=%d background=%d\n",
		res.LogicalOps, res.NotFoundReads, res.PhysReads, res.PhysWrites, res.LogIOs, res.BackgroundIOs)
	fmt.Printf("  pool: hit=%.3f resident=%d/%d shards=%d evictions=%d flushes=%d\n",
		res.HitRatio, res.PoolResident, res.PoolCapacity, res.PoolShards, res.Pool.Evictions, res.Pool.Flushes)
	if res.Config.Locking {
		fmt.Printf("  locks: requests=%d conflicts=%d max-waiters=%d shards=%d\n",
			res.Locks.Requests, res.Locks.Conflicts, res.Locks.MaxWaiters, res.LockShards)
	}
	if d := res.Durability; d != (oodb.DurableStats{}) {
		fmt.Printf("  wal: appends=%d fsyncs=%d bytes=%d page(r/w)=%d/%d committed=%d\n",
			d.WALAppends, d.WALSyncs, d.WALBytes, d.PageReads, d.PageWrites, d.Committed)
	}
	fmt.Printf("  digest: %016x\n", res.LogicalDigest)
	if wt := res.KindCount["ocb-insert"] + res.KindCount["ocb-delete"] +
		res.KindCount["ocb-update"] + res.KindCount["ocb-rewire"]; wt > 0 || res.ConservationViolations > 0 {
		fmt.Printf("  writes: ocb=%d final-state=%016x objects(live/placed)=%d/%d conserve-violations=%d\n",
			wt, res.FinalStateDigest, res.LiveObjects, res.PlacedObjects, res.ConservationViolations)
	}
}

// us renders a microsecond count as a duration.
func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
