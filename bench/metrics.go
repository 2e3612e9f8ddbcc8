package main

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the database would see, measured
// with tracing off. Bound is the share of the parent's median by which
// the metric may get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "stmts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_stmt", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "kb_per_stmt", Unit: "KiB", Better: "lower", Bound: 0.05},
}

// perLayer are the metrics of single layers, measured by the traced run
// around the harness's own calls into each layer. Times are means per
// statement the stage ran for; counts are means per statement unless
// the name says otherwise. They carry no bound.
var perLayer = []metricDef{
	{Name: "sqlscan.scan_us", Unit: "us", Better: "lower"},
	{Name: "sqlscan.tokens", Unit: "count", Better: "lower"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.ast_nodes", Unit: "count", Better: "lower"},
	{Name: "check.lint_us", Unit: "us", Better: "lower"},
	{Name: "check.summarize_us", Unit: "us", Better: "lower"},
	{Name: "check.diagnostics", Unit: "count", Better: "lower"},
	{Name: "core.translate_max_us", Unit: "us", Better: "lower"},
	{Name: "core.translate_perst_us", Unit: "us", Better: "lower"},
	{Name: "core.translate_current_us", Unit: "us", Better: "lower"},
	{Name: "core.out_stmts", Unit: "count", Better: "lower"},
	{Name: "core.out_sql_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.not_transformable", Unit: "frac", Better: "lower"},
	{Name: "temporal.cp_us", Unit: "us", Better: "lower"},
	{Name: "temporal.points_in", Unit: "count", Better: "lower"},
	{Name: "temporal.periods_out", Unit: "count", Better: "lower"},
	{Name: "storage.collect_points_us", Unit: "us", Better: "lower"},
	{Name: "storage.overlap_probe_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.overlap_rebuild_us", Unit: "us", Better: "lower"},
	{Name: "storage.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.rows_final", Unit: "count", Better: "lower"},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.rows_scanned", Unit: "count", Better: "lower"},
	{Name: "engine.rows_returned", Unit: "count", Better: "higher"},
	{Name: "engine.scanned_per_returned", Unit: "ratio", Better: "lower"},
	{Name: "engine.routine_calls", Unit: "count", Better: "lower"},
	{Name: "engine.memo_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "engine.psm_statements", Unit: "count", Better: "lower"},
	{Name: "engine.log_writes", Unit: "count", Better: "lower"},
	{Name: "engine.interval_probes", Unit: "count", Better: "lower"},
	{Name: "engine.plan_reuse_hits", Unit: "count", Better: "higher"},
	{Name: "engine.sweep_joins", Unit: "count", Better: "higher"},
	{Name: "stratum.exec_us", Unit: "us", Better: "lower"},
	{Name: "stratum.overhead_us", Unit: "us", Better: "lower"},
	{Name: "stratum.translation_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stratum.cp_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stratum.lint_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stratum.auto_max_frac", Unit: "frac", Better: "higher"},
	{Name: "stratum.perst_fallbacks", Unit: "count", Better: "lower"},
	{Name: "stratum.constant_periods", Unit: "count", Better: "lower"},
	{Name: "stratum.fragments", Unit: "count", Better: "lower"},
	{Name: "stratum.parallel_stmt_frac", Unit: "frac", Better: "higher"},
	{Name: "stratum.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_commit", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_commit", Unit: "bytes", Better: "lower"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.recovery_commits", Unit: "count", Better: "lower"},
	{Name: "wal.open_ms", Unit: "ms", Better: "lower"},
	{Name: "stats.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "1/kstmt", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms/kstmt", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	// Percentiles over all statements of the traced run's untraced phase.
	// The tail is the least steady figure on a shared machine: it could
	// not hold a bound in repeated runs of the same code, so it is
	// printed without one.
	{Name: "stmt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stmt_p95_ms", Unit: "ms", Better: "lower"},
	// The read/write split, recovery time and log volume of oltp-persist
	// are end-to-end in nature, but they exist on one workload only and
	// every end-to-end metric must be reported, non-zero, by every
	// workload; they are printed here and read 0 elsewhere.
	{Name: "oltp.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "oltp.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "oltp.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "oltp.write_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "oltp.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "oltp.wal_bytes_per_write", Unit: "bytes", Better: "lower"},
}

// metricUnits maps every declared metric to its unit.
var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()
