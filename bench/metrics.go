package main

// metric describes one reported number. The end-to-end list and the
// per-layer list below are the source BENCHMARK.json is checked against
// (bench_test.go), so a name, unit or bound changes in one reviewed place.
type metric struct {
	Name string
	Unit string
	// Clock is "wall", "sim" (simulated seconds), "host" (a count the Go
	// runtime keeps: near, not exactly, repeatable) or "-" (a count or ratio
	// of the program's own, which repeats exactly at one session).
	Clock  string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it regressed. Every end-to-end metric has
	// one; per-layer metrics are ungated except the four workload-scoped
	// numbers that Gated marks (an exact Bound of 0 means "must not worsen").
	Bound float64
	Gated bool
	Layer string // owning package
	// Moves names the end-to-end metric and workload this number should
	// move when its layer changes (the interaction table in README.md).
	Moves string
}

// endToEnd are measured on EVERY workload with tracing off, are never zero,
// and carry the bounds the driver enforces. On the two-core sandbox the
// benchmark was sized on, ten-seed spreads (quartile distance / median) reach
// 5 % for throughput and 11 % for p99, and with no code change the file
// workloads drifted by 17 % (ops_per_s) over an hour, so every timing carries
// the widest bound the contract allows and not the 10-15 % the issue first
// asked for (README.md, "Steadiness").
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Clock: "wall", Better: "lower", Bound: 0.25, Gated: true, Layer: "engine",
		Moves: "constructor call to ready: workload generation + PlaceNew of every object + WAL bootstrap; every experiment cell pays it"},
	{Name: "ops_per_s", Unit: "1/s", Clock: "wall", Better: "higher", Bound: 0.25, Gated: true, Layer: "engine",
		Moves: "completed operations / Elapsed; on sim-paper simulated transactions per host second"},
	{Name: "lat_p99_us", Unit: "us", Clock: "wall", Better: "lower", Bound: 0.25, Gated: true, Layer: "engine",
		Moves: "p99 wall-clock time of the unit a caller waits on: one operation (Concurrent), one RunN(50) slice (sim-paper)"},
	{Name: "mem_mb", Unit: "MiB", Clock: "host", Better: "lower", Bound: 0.05, Gated: true, Layer: "engine",
		Moves: "HeapAlloc after GC once setup returns: graph + store + pool"},
}

// perLayer are reported by the --trace 1 run: counters the engines already
// return, spans from the timing decorators, and the isolated probes. A
// metric that does not apply to a workload reads 0 there.
var perLayer = []metric{
	// Workload-scoped end-to-end numbers. The benchmark contract wants every
	// end_to_end metric non-zero on every workload, so these live here; the
	// -compare tool still gates them with the bounds the issue fixed.
	{Name: "wal_bytes_per_commit", Unit: "B", Clock: "-", Better: "lower", Bound: 0.05, Gated: true, Layer: "storage",
		Moves: "WAL growth of the run itself / commits, stat'ed from outside; ocb-durable, ocb-wal (two sessions interleave differently run to run: +-1 % at one seed)"},
	{Name: "recover_s", Unit: "s", Clock: "wall", Better: "lower", Bound: 0.15, Gated: true, Layer: "storage",
		Moves: "storage.RecoverDir on the directory the run closed; ocb-durable, ocb-wal"},
	{Name: "sim_resp_ms", Unit: "ms", Clock: "sim", Better: "lower", Bound: 0, Gated: true, Layer: "engine",
		Moves: "Results.MeanResponse, the paper's figure of merit; a host-speed change must leave it bit-identical; sim-paper"},
	{Name: "failed_frac", Unit: "ratio", Clock: "-", Better: "lower", Bound: 0, Gated: true, Layer: "engine",
		Moves: "(attempted - completed + failed checks) / attempted; any non-zero value also fails the command"},
	{Name: "oracle.digest", Unit: "hash", Clock: "-", Better: "lower", Bound: 0, Gated: true, Layer: "engine",
		Moves: "32-bit fold of logical+final-state digests of the one-session oracle run; must be identical across commits"},

	// Counters from Results / ConcurrentResults.
	{Name: "engine.logical_ops_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "engine", Moves: "work per operation; ops_per_s everywhere"},
	{Name: "engine.phys_io_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "engine", Moves: "ops_per_s on oct-miss; sim_resp_ms on sim-paper"},
	{Name: "engine.lat_samples", Unit: "count", Clock: "-", Better: "higher", Layer: "engine", Moves: "sample count behind lat_p99_us"},
	{Name: "engine.lat_p50_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "engine", Moves: "2-8 us on a 1 us grid, so ungated; ops_per_s"},
	{Name: "engine.lat_p999_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "engine", Moves: "tail beyond lat_p99_us"},
	{Name: "engine.lat_max_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "engine", Moves: "worst stall (GC, fsync outlier)"},
	{Name: "engine.allocs_per_op", Unit: "count", Clock: "host", Better: "lower", Layer: "engine", Moves: "heap allocations Run() makes per operation (runtime.MemStats); ops_per_s, lat_p99_us on ocb-hot, oct-miss"},
	{Name: "engine.alloc_bytes_per_op", Unit: "B", Clock: "host", Better: "lower", Layer: "engine", Moves: "bytes Run() allocates per operation; with mem_mb it sets engine.gc_cycles"},
	{Name: "engine.gc_cycles", Unit: "count", Clock: "host", Better: "lower", Layer: "engine", Moves: "collections during one round's Run(); lat_p99_us on ocb-hot (p99 there is an operation that met the collector)"},
	{Name: "lock.requests_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "lock", Moves: "ops_per_s, lat_p99_us on ocb-hot then oct-miss"},
	{Name: "lock.conflict_ratio", Unit: "ratio", Clock: "-", Better: "lower", Layer: "lock", Moves: "lat_p99_us on ocb-hot then oct-miss"},
	{Name: "lock.max_waiters", Unit: "count", Clock: "-", Better: "lower", Layer: "lock", Moves: "lat_p99_us on ocb-hot"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Clock: "-", Better: "higher", Layer: "buffer", Moves: "ops_per_s, lat_p99_us on oct-miss; sim_resp_ms on sim-paper; not ocb-hot"},
	{Name: "buffer.evictions_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "buffer", Moves: "ops_per_s, lat_p99_us on oct-miss; not ocb-hot"},
	{Name: "buffer.flushes_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "buffer", Moves: "ops_per_s on oct-miss, ocb-wal"},
	{Name: "storage.wal_mb", Unit: "MiB", Clock: "-", Better: "lower", Layer: "storage", Moves: "recover_s on ocb-durable, ocb-wal"},
	{Name: "sim.events_per_s", Unit: "1/s", Clock: "wall", Better: "higher", Layer: "sim", Moves: "ops_per_s on sim-paper"},
	{Name: "sim.events_per_txn", Unit: "count", Clock: "-", Better: "lower", Layer: "sim", Moves: "ops_per_s on sim-paper"},
	{Name: "sim.cpu_util", Unit: "ratio", Clock: "sim", Better: "lower", Layer: "sim", Moves: "sim_resp_ms on sim-paper"},
	{Name: "sim.disk_util", Unit: "ratio", Clock: "sim", Better: "lower", Layer: "sim", Moves: "sim_resp_ms on sim-paper"},
	{Name: "txlog.records_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "txlog", Moves: "ops_per_s on sim-paper"},
	{Name: "txlog.before_image_ios_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "txlog", Moves: "sim_resp_ms on sim-paper"},
	{Name: "core.placements", Unit: "count", Clock: "-", Better: "lower", Layer: "core", Moves: "ops_per_s on sim-paper"},
	{Name: "core.moves", Unit: "count", Clock: "-", Better: "lower", Layer: "core", Moves: "ops_per_s on sim-paper"},
	{Name: "core.splits", Unit: "count", Clock: "-", Better: "lower", Layer: "core", Moves: "ops_per_s on sim-paper"},
	{Name: "core.candidate_ios_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "core", Moves: "sim_resp_ms on sim-paper"},

	// Spans from the traced run (trace.go).
	{Name: "storage.commit_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s, lat_p99_us on ocb-durable; not ocb-wal, ocb-hot, oct-miss"},
	{Name: "storage.commit_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "storage", Moves: "mean LogCommit (commit record + fsync); ocb-durable"},
	{Name: "storage.begin_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s on ocb-wal"},
	{Name: "storage.mutate_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s, wal_bytes_per_commit, recover_s on ocb-wal; not ocb-hot, sim-paper"},
	{Name: "storage.page_read_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s on ocb-wal; not memory-backend workloads"},
	{Name: "storage.page_write_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s on ocb-wal"},
	{Name: "storage.wal_appends_per_commit", Unit: "count", Clock: "-", Better: "lower", Layer: "storage", Moves: "wal_bytes_per_commit, recover_s on ocb-wal, ocb-durable"},
	{Name: "storage.fsyncs_per_commit", Unit: "count", Clock: "-", Better: "lower", Layer: "storage", Moves: "ops_per_s, lat_p99_us on ocb-durable (1.00 today; group commit lowers it)"},
	{Name: "storage.page_reads_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "storage", Moves: "ops_per_s on ocb-wal"},
	{Name: "storage.page_writes_per_op", Unit: "count", Clock: "-", Better: "lower", Layer: "storage", Moves: "ops_per_s on ocb-wal"},
	{Name: "core.place_new_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "core", Moves: "ops_per_s on ocb-wal (small: ~2% of the run); not ocb-hot"},
	{Name: "core.place_new_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "core", Moves: "mean PlaceNew during the run"},
	{Name: "core.recluster_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "core", Moves: "ops_per_s on ocb-wal; not ocb-hot"},
	{Name: "core.self_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "core", Moves: "clusterer spans minus the storage spans nested in them"},
	{Name: "core.construct_place_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "core", Moves: "setup_s, everywhere; never ops_per_s"},
	{Name: "workload.generate_s", Unit: "s", Clock: "wall", Better: "lower", Layer: "workload", Moves: "setup_s on oct-miss, sim-paper"},
	{Name: "ocb.generate_s", Unit: "s", Clock: "wall", Better: "lower", Layer: "ocb", Moves: "setup_s, mem_mb on ocb-*"},
	{Name: "engine.construct_s", Unit: "s", Clock: "wall", Better: "lower", Layer: "engine", Moves: "setup_s minus generation: placement + bootstrap"},
	{Name: "engine.session_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "engine", Moves: "sessions x elapsed of one traced round: the time the spans and the residual divide up"},
	{Name: "engine.residual_ms", Unit: "ms", Clock: "wall", Better: "lower", Layer: "engine", Moves: "engine.session_ms minus top-level spans: generator draw, lock wait, guard wait, graph walk; ops_per_s on ocb-hot"},
	{Name: "trace.overhead_pct", Unit: "%", Clock: "wall", Better: "lower", Layer: "bench", Moves: "traced vs untraced ops_per_s; must stay under 5"},

	// Isolated probes (probes.go).
	{Name: "lock.acquire_release_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "lock", Moves: "ops_per_s, lat_p99_us on ocb-hot, oct-miss, sim-paper"},
	{Name: "lock.acquire_release_par_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "lock", Moves: "ops_per_s on ocb-hot, oct-miss; not sim-paper"},
	{Name: "buffer.hit_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "buffer", Moves: "ops_per_s on ocb-hot"},
	{Name: "buffer.miss_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "buffer", Moves: "ops_per_s, lat_p99_us on oct-miss; not ocb-hot"},
	{Name: "buffer.hit_par_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "buffer", Moves: "ops_per_s on oct-miss, ocb-hot"},
	{Name: "buffer.serial_hit_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "buffer", Moves: "ops_per_s on sim-paper; no Concurrent workload"},
	{Name: "buffer.serial_miss_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "buffer", Moves: "ops_per_s on sim-paper; no Concurrent workload"},
	{Name: "sim.heap_event_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "sim", Moves: "ops_per_s on sim-paper; no Concurrent workload"},
	{Name: "sim.wheel_event_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "sim", Moves: "ops_per_s on large-tier runs; no workload here uses the wheel"},
	{Name: "txlog.append_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "txlog", Moves: "ops_per_s on sim-paper"},
	{Name: "ocb.next_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "ocb", Moves: "ops_per_s, lat_p99_us on ocb-hot"},
	{Name: "workload.next_ns", Unit: "ns", Clock: "wall", Better: "lower", Layer: "workload", Moves: "ops_per_s on oct-miss, sim-paper"},
	{Name: "storage.commit_always_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "storage", Moves: "ops_per_s, lat_p99_us on ocb-durable"},
	{Name: "storage.fsync_probe_us", Unit: "us", Clock: "wall", Better: "lower", Layer: "storage", Moves: "device drift, not code: read it next to ocb-durable"},
	{Name: "storage.recover_mb_per_s", Unit: "MiB/s", Clock: "wall", Better: "higher", Layer: "storage", Moves: "recover_s on ocb-durable, ocb-wal"},
}

// repeats reports whether the same seed gives the same value every time.
func (m metric) repeats() bool { return m.Clock == "-" || m.Clock == "sim" }

func findMetric(name string) (metric, bool) {
	for _, list := range [][]metric{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}
