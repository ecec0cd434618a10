package main

// metricDef declares one reported metric. The set must match
// BENCHMARK.json exactly, in both directions (TestMetricsMatchManifest).
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// endToEnd metrics come from untraced iterations (--trace 0); the
	// others from traced ones (--trace 1).
	endToEnd bool
}

// metricDefs lists every metric the benchmark prints. The package doc
// gives each one's meaning and which workload moves it.
var metricDefs = []metricDef{
	{"setup_s", "s", "lower", true},
	{"run_cpu_s", "s", "lower", true},
	{"alloc_mb", "MB", "lower", true},

	{"final_mloss", "mloss", "lower", false},
	{"recv_rate", "%", "higher", false},
	{"success_pct", "%", "higher", false},

	{"model.train_steps", "count", "higher", false},
	{"model.train_busy_s", "s", "lower", false},
	{"model.train_step_us", "us", "lower", false},

	{"core.chat_busy_s", "s", "lower", false},
	{"core.chat_sessions", "count", "higher", false},
	{"core.chat_completed_ratio", "ratio", "higher", false},
	{"core.chat_us", "us", "lower", false},
	{"core.ticks", "count", "higher", false},
	{"core.tick_p50_us", "us", "lower", false},
	{"core.tick_tail_us", "us", "lower", false},
	{"core.other_s", "s", "lower", false},

	{"coreset.leaves_rebuilt", "count", "lower", false},
	{"coreset.leaves_cached", "count", "higher", false},
	{"coreset.cache_hit_ratio", "ratio", "higher", false},
	{"coreset.absorbed_frames", "count", "higher", false},

	{"radio.bytes_on_air", "B", "lower", false},
	{"radio.truncated", "count", "lower", false},

	{"sched.due_dequeued", "count", "higher", false},
	{"sched.buckets_touched", "count", "lower", false},

	{"trace.fetch_busy_s", "s", "lower", false},
	{"trace.fetch_wait_s", "s", "lower", false},
	{"trace.chunk_loads", "count", "lower", false},

	{"spatial.scan_busy_s", "s", "lower", false},
	{"spatial.scan_us_per_tick", "us", "lower", false},
	{"spatial.pairs_per_tick", "count", "higher", false},
	{"shard.fleet_tick_busy_s", "s", "lower", false},
	{"shard.pairs", "count", "higher", false},

	{"eval.trials", "count", "higher", false},
	{"eval.control_steps", "count", "higher", false},
	{"eval.predict_busy_s", "s", "lower", false},
	{"eval.predict_us", "us", "lower", false},
	{"eval.sim_busy_s", "s", "lower", false},
	{"eval.step_us", "us", "lower", false},

	{"bench.run_wall_s", "s", "lower", false},
	{"bench.trace_overhead_ratio", "ratio", "lower", false},
}
