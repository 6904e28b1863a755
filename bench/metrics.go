package main

// metric names a reported number and its unit. BENCHMARK.json lists the same
// names with direction and bound; TestBenchmarkJSONMatchesHarness keeps the
// two in step.
type metric struct{ name, unit string }

// endToEnd is what a user of the system sees, on every workload. A sim
// workload and a serve workload push jobs down the same path — admit, cycle,
// run, outcome, restart — through different front doors, so each metric has
// a reading on both; README.md has the table.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cycles_per_s", "1/s"},
	{"cycle_p50_ms", "ms"},
	{"cycle_p99_ms", "ms"},
	{"admit_p50_ms", "ms"},
	{"restart_ms", "ms"},
	{"slo_attain_pct", "%"},
	{"goodput_mh", "machine-hours"},
}

// perLayer is printed by the traced run, <module>.<metric>. A metric of a
// layer the workload does not reach reads 0.
var perLayer = []metric{
	{"workload.generate_ms", "ms"},

	{"predictor.train_ms", "ms"},
	{"predictor.estimate_calls", "count"},
	{"predictor.estimate_busy_ms", "ms"},
	{"predictor.estimate_p99_us", "us"},
	{"predictor.observe_busy_ms", "ms"},

	{"core.cycle_calls", "count"},
	{"core.cycle_busy_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.submit_busy_ms", "ms"},
	{"core.memo_hit_pct", "%"},
	{"core.quiet_pct", "%"},
	{"core.patched_cycles", "count"},
	{"core.rebuild_fallbacks", "count"},
	{"core.reused_solves", "count"},
	{"core.max_vars", "count"},
	{"core.max_rows", "count"},
	{"core.starts", "count"},
	{"core.preemptions", "count"},

	{"milp.solve_busy_ms", "ms"},
	{"milp.solve_p99_ms", "ms"},
	{"milp.bb_nodes", "count"},
	{"milp.lp_iters", "count"},
	{"milp.spec_lps", "count"},
	{"milp.spec_used_pct", "%"},
	{"milp.warm_basis_reuses", "count"},
	{"milp.incumbent_seed_hits", "count"},

	{"shard.cycle_busy_ms", "ms"},
	{"shard.sum_domain_ms", "ms"},
	{"shard.speedup", "x"},
	{"shard.rebalanced", "count"},
	{"shard.stolen", "count"},
	{"shard.span_starts", "count"},
	{"shard.span_abandons", "count"},

	{"simulator.run_wall_ms", "ms"},
	{"simulator.self_ms", "ms"},
	{"simulator.accounted_pct", "%"},
	{"simulator.cycles", "count"},
	{"simulator.skipped_starts", "count"},
	{"simulator.alloc_kb_per_cycle", "KiB"},
	{"simulator.gc_pause_ms", "ms"},

	{"service.submit_busy_ms", "ms"},
	{"service.admit_p95_ms", "ms"},
	{"service.admit_p99_ms", "ms"},
	{"service.admit_max_ms", "ms"},
	{"service.status_busy_ms", "ms"},
	{"service.status_p50_ms", "ms"},
	{"service.status_p95_ms", "ms"},
	{"service.start_delay_p50_ms", "ms"},
	{"service.cycle_sched_ms", "ms"},
	{"service.cycles", "count"},
	{"service.tick_miss_pct", "%"},
	{"service.rejected_429", "count"},
	{"service.repl_gap", "count"},
	{"service.repl_lag_timeouts", "count"},
	{"service.follower_append_calls", "count"},
	{"service.follower_append_busy_ms", "ms"},
	{"service.records_per_push", "count"},
	{"service.snapshots", "count"},
	{"service.compactions", "count"},
	{"service.replay_ms", "ms"},
	{"service.failover_ms", "ms"},
	{"service.closed_loop_rps", "1/s"},

	{"replog.records", "count"},
	{"replog.bytes", "bytes"},
	{"replog.bytes_per_record", "bytes"},
	{"replog.open_ms", "ms"},
	{"replog.append_p50_us", "us"},
	{"replog.append_p99_us", "us"},
	{"replog.fsync_probe_us", "us"},
	{"replog.compact_ms", "ms"},

	{"agent.reconcile_calls", "count"},
	{"agent.reconcile_rtt_p50_ms", "ms"},
	{"agent.reconcile_rtt_p99_ms", "ms"},
	{"agent.reconcile_busy_ms", "ms"},
	{"agent.directives_sent", "count"},
	{"agent.events_applied", "count"},
	{"agent.reissued", "count"},
	{"agent.start_delay_p50_ms", "ms"},

	{"loadgen.late_p99_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"proc.peak_rss_mb", "MiB"},
	{"proc.fail_pct", "%"},
	{"proc.trace_overhead_pct", "%"},
}
