package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; the smoke test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the service sees, reported by the
// untraced pass on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"factor_s", "s", "lower"},
	{"solve_s", "s", "lower"},
	{"boot_s", "s", "lower"},
	{"dist_p50_us", "us", "lower"},
	{"dist_p99_us", "us", "lower"},
	{"batch_p50_us", "us", "lower"},
	{"sssp_p50_us", "us", "lower"},
	{"update_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer is what the traced pass reports, named layer.metric after
// the module whose public functions were timed or whose counters were
// read. The tails are the highest percentile of each op kind that
// still has ten samples beyond it.
var perLayer = []metricDef{
	{"gen.build_s", "s", "lower"},
	{"part.bisect_s", "s", "lower"},
	{"order.nd_s", "s", "lower"},
	{"order.topsep", "count", "lower"},
	{"order.planned_ops", "count", "lower"},
	{"order.etree_levels", "count", "lower"},
	{"symbolic.s", "s", "lower"},
	{"symbolic.supernodes", "count", "lower"},
	{"symbolic.median_block", "count", "higher"},
	{"core.plan_s", "s", "lower"},
	{"core.factor_numeric_s", "s", "lower"},
	{"core.solve_numeric_s", "s", "lower"},
	{"core.factor_bytes", "B", "lower"},
	{"semiring.calls", "count", "lower"},
	{"semiring.fused_ops", "count", "lower"},
	{"semiring.dense_ratio", "ratio", "higher"},
	{"semiring.packed_bytes", "B", "lower"},
	{"semiring.packed_reuse_bytes", "B", "higher"},
	{"semiring.diag_s", "s", "lower"},
	{"semiring.panel_s", "s", "lower"},
	{"semiring.outer_s", "s", "lower"},
	{"semiring.factor_gops", "Gop/s", "higher"},
	{"semiring.gemm_dense_gops", "Gop/s", "higher"},
	{"semiring.gemm_mid_gops", "Gop/s", "higher"},
	{"semiring.gemm_sparse_gops", "Gop/s", "higher"},
	{"machine.stream_gbs", "GB/s", "higher"},
	{"par.factor_scaling", "ratio", "higher"},
	{"core.label_build_us", "us", "lower"},
	{"core.label_len", "count", "lower"},
	{"core.meet_ns", "ns", "lower"},
	{"core.dist_cold_us", "us", "lower"},
	{"core.dist_cached_us", "us", "lower"},
	{"core.sssp_us", "us", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.cache_size", "count", "higher"},
	{"core.patch_ms", "ms", "lower"},
	{"core.dirty_fraction", "ratio", "lower"},
	{"core.full_rebuilds", "count", "lower"},
	{"core.ckpt_save_s", "s", "lower"},
	{"core.ckpt_load_s", "s", "lower"},
	{"core.ckpt_bytes", "B", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.open_replay_ms", "ms", "lower"},
	{"wal.bytes_per_batch", "B", "lower"},
	{"serve.handler_dist_us", "us", "lower"},
	{"serve.handler_batch_us", "us", "lower"},
	{"serve.handler_sssp_us", "us", "lower"},
	{"serve.handler_update_ms", "ms", "lower"},
	{"serve.wire_dist_us", "us", "lower"},
	{"serve.sssp_bytes", "B", "lower"},
	{"serve.http_non2xx", "count", "lower"},
	{"shard.hop_dist_us", "us", "lower"},
	{"shard.gather_batch_us", "us", "lower"},
	{"shard.update_fanout_ms", "ms", "lower"},
	{"shard.route_skew", "ratio", "lower"},
	{"shard.retries", "count", "lower"},
	{"go.alloc_mb_traffic", "MB", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"dist_tail_us", "us", "lower"},
	{"dist_tail_pct", "%", "higher"},
	{"batch_tail_us", "us", "lower"},
	{"batch_tail_pct", "%", "higher"},
	{"sssp_tail_us", "us", "lower"},
	{"sssp_tail_pct", "%", "higher"},
	{"update_tail_ms", "ms", "lower"},
	{"update_tail_pct", "%", "higher"},
}

// shardOnly are the per-layer metrics that exist only where a
// coordinator does; on other workloads they read 0 and tables omit them.
var shardOnly = map[string]bool{
	"shard.hop_dist_us": true, "shard.gather_batch_us": true, "shard.update_fanout_ms": true,
	"shard.route_skew": true, "shard.retries": true,
}
