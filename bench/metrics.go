package main

// The benchmark's metric names and units. BENCHMARK.json repeats them
// (bench_test.go fails if the two lists differ in either direction).

// metricDef names one metric. exact marks a count that must repeat
// exactly for a given seed; -selfcheck asserts it.
type metricDef struct {
	name, unit string
	exact      bool
}

// endToEndMetrics are the bounded metrics, same names on every
// workload: the ones that repeat from run to run on a shared machine.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "alloc_kb_per_op", unit: "KiB"},
	{name: "heap_after_gc_mb", unit: "MiB"},
}

// perLayerMetrics carry no bound. A layer a workload does not exercise
// reports 0.
var perLayerMetrics = []metricDef{
	// What a client sees of speed, from the untraced passes. They are
	// listed here and not above because on this machine identical code
	// spreads them by 5-15% from run to run, past the 10% a bound may be
	// (README.md, "Bounds").
	{name: "ops_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p95_ms", unit: "ms"},
	{name: "cpu_ms_per_op", unit: "ms"},
	// Write-path numbers that exist on write_stream only, and the failure
	// ratio, which is 0 on a correct run: the driver wants one set of
	// end-to-end metrics, never 0, for all workloads.
	{name: "write_stall_ms", unit: "ms"},
	{name: "recovery_s", unit: "s"},
	{name: "error_rate", unit: "ratio", exact: true},

	{name: "server.handler_us", unit: "us"},
	{name: "server.self_us", unit: "us"},
	{name: "server.resp_bytes_per_op", unit: "B"},
	{name: "server.envcache_hit_ratio", unit: "ratio", exact: true},
	{name: "server.prepared_hit_ratio", unit: "ratio", exact: true},
	{name: "server.rejected", unit: "count", exact: true},

	{name: "sqlparse.parse_us", unit: "us"},
	{name: "sqlparse.normalize_us", unit: "us"},
	{name: "engine.prepare_us", unit: "us"},
	{name: "core.rewrite_us", unit: "us"},
	{name: "opt.choose_us", unit: "us"},
	{name: "opt.plan_changed_ratio", unit: "ratio", exact: true},
	{name: "core.envelope_disjuncts", unit: "count", exact: true},

	{name: "core.derive_ms", unit: "ms"},
	{name: "core.derive_share", unit: "ratio"},
	{name: "mining.train_ms.dtree", unit: "ms"},
	{name: "mining.train_ms.nbayes", unit: "ms"},

	{name: "exec.execute_us", unit: "us"},
	{name: "exec.scan_self_us", unit: "us"},
	{name: "exec.filter_self_us", unit: "us"},
	{name: "exec.predict_self_us", unit: "us"},
	{name: "exec.agg_self_us", unit: "us"},
	{name: "exec.tuples_read_per_op", unit: "count", exact: true},
	{name: "exec.pages_read_per_op", unit: "count", exact: true},
	{name: "exec.rows_returned_per_op", unit: "count", exact: true},
	{name: "exec.cost_units_per_op", unit: "count", exact: true},
	{name: "exec.envelope_reject_ratio", unit: "ratio", exact: true},
	{name: "exec.model_calls_per_row", unit: "ratio", exact: true},

	{name: "vec.execute_us.d1", unit: "us"},
	{name: "vec.execute_us.d4", unit: "us"},
	{name: "vec.execute_us.d16", unit: "us"},
	{name: "vec.rows_per_us", unit: "1/us"},
	{name: "vec.term_evals_per_row", unit: "ratio", exact: true},
	{name: "vec.fallback_ratio", unit: "ratio", exact: true},
	{name: "catalog.columnar_build_ms", unit: "ms"},
	{name: "catalog.analyze_ms", unit: "ms"},
	{name: "storage.load_rows_per_s", unit: "1/s"},

	{name: "dml.insert_us", unit: "us"},
	{name: "dml.update_us", unit: "us"},
	{name: "dml.delete_us", unit: "us"},
	{name: "dml.retrain_ms", unit: "ms"},
	{name: "wal.append_us", unit: "us"},
	{name: "wal.sync_us", unit: "us"},
	{name: "wal.syncs_per_stmt", unit: "ratio", exact: true},
	{name: "wal.bytes_per_row", unit: "B", exact: true},
	{name: "wal.file_sync_us", unit: "us"},
	{name: "wal.replay_frames", unit: "count", exact: true},
	{name: "wal.replay_ms", unit: "ms"},
	{name: "standing.eval_us_per_batch", unit: "us"},
	{name: "standing.evals_per_row", unit: "ratio", exact: true},
	{name: "standing.model_calls_per_row", unit: "ratio", exact: true},
	{name: "standing.matches_per_row", unit: "ratio", exact: true},
	{name: "standing.dropped", unit: "count", exact: true},
	{name: "standing.recompiles", unit: "count", exact: true},
	{name: "standing.recompile_ms", unit: "ms"},
	{name: "standing.poll_us", unit: "us"},

	{name: "cluster.query_us", unit: "us"},
	{name: "cluster.shard_rtt_us", unit: "us"},
	{name: "cluster.slowest_shard_us", unit: "us"},
	{name: "cluster.coord_self_us", unit: "us"},
	{name: "cluster.shards_pruned_ratio", unit: "ratio", exact: true},
	{name: "cluster.shard_calls_per_op", unit: "ratio", exact: true},
	{name: "cluster.wire_bytes_per_op", unit: "B"},
	{name: "cluster.agg_partial_merges_per_op", unit: "ratio", exact: true},
	{name: "cluster.retries", unit: "count", exact: true},

	{name: "trace.overhead_pct", unit: "%"},
}

var perLayerIndex = func() map[string]metricDef {
	m := make(map[string]metricDef, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = d
	}
	return m
}()

// layerShare is one layer's part of a workload's op wall time in the
// traced passes.
type layerShare struct {
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

// sizes are the workload scale knobs. defaultSizes is the benchmark;
// the smoke test shrinks everything.
type sizes struct {
	custRows   int // customers: adhoc_plan, scan_row, cluster_read
	wideRows   int // scan_columnar
	eventRows  int // write_stream steady-state table
	subs       int // write_stream standing subscriptions
	adhocOps   int
	scanOps    int
	colOps     int
	writeStmts int // write_stream statements per pass (rounded to its cycle)
	clusterOps int
	// scratch is the directory for files a run writes (span files, the
	// file-fsync probe's log); "" writes none.
	scratch string
}

var defaultSizes = sizes{
	custRows: 6400, wideRows: 160000, eventRows: 20000, subs: 1000,
	adhocOps: 5000, scanOps: 200, colOps: 200, writeStmts: 300, clusterOps: 600,
	scratch: "bench/out",
}

// workload is one entry of the suite: its name and how to build it.
// setup also returns the set-up phase metrics.
type workload struct {
	name  string
	setup func(seed int64, sz sizes) (fixture, map[string]float64, error)
}
