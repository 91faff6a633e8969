package main

// kind says where a metric's value comes from.
type kind int

const (
	// kindHost is measured by the run loop over all passes (setup_s, host_*).
	kindHost kind = iota
	// kindSetup is a host time measured inside each set-up; the run
	// reports its median.
	kindSetup
	// kindDet is deterministic: a virtual-time result or a count, set by
	// every pass and checked by the determinism gate.
	kindDet
	// kindTraced is a host time the decorator's spans or the CPU profile
	// give; only traced passes set it and the run reports its median.
	kindTraced
)

// def declares one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestCatalogMatchesBenchmarkJSON keeps the two in
// step.
type def struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
	layer              bool
	kind               kind
	order              int
}

func e2e(name, unit, better string, bound float64, k kind) def {
	return def{name: name, unit: unit, better: better, bound: bound, kind: k}
}

func layer(name, unit, better string, k kind) def {
	return def{name: name, unit: unit, better: better, layer: true, kind: k}
}

// catalog lists every metric in print order. METRICS.md says what each one
// means on each workload and which end-to-end metric each layer moves.
var catalog = []def{
	e2e("setup_s", "s", "lower", 0.25, kindHost),
	e2e("host_ops_per_cpu_s", "1/cpu_s", "higher", 0.25, kindHost),
	e2e("host_allocs_per_op", "count", "lower", 0.05, kindHost),
	e2e("host_alloc_bytes_per_op", "B", "lower", 0.05, kindHost),
	e2e("peak_rss_mb", "MB", "lower", 0.25, kindHost),
	e2e("virt_overhead_pct", "%", "lower", 0.05, kindDet),
	e2e("virt_overhead_noldc_pct", "%", "lower", 0.05, kindDet),
	e2e("virt_p50_us", "virt_us", "lower", 0.05, kindDet),
	e2e("virt_tail_us", "virt_us", "lower", 0.25, kindDet),
	e2e("virt_max_rps", "1/virt_s", "higher", 0.05, kindDet),

	layer("workload.gen_s", "s", "lower", kindSetup),
	layer("workload.hottest_s", "s", "lower", kindSetup),
	layer("analysis.categorize_s", "s", "lower", kindSetup),
	layer("apps.run_host_s.direct", "s", "lower", kindTraced),
	layer("apps.run_host_s.ldc", "s", "lower", kindTraced),
	layer("apps.run_host_s.noldc", "s", "lower", kindTraced),
	layer("core.calls", "count", "lower", kindDet),
	layer("core.call_host_us.p50", "us", "lower", kindTraced),
	layer("core.call_host_us.p99", "us", "lower", kindTraced),
	layer("core.call_host_s.loading", "s", "lower", kindTraced),
	layer("core.call_host_s.processing", "s", "lower", kindTraced),
	layer("core.call_host_s.visualizing", "s", "lower", kindTraced),
	layer("core.call_host_s.storing", "s", "lower", kindTraced),
	layer("core.call_virt_us.p50", "virt_us", "lower", kindDet),
	layer("core.boundary_host_s", "s", "lower", kindTraced),
	layer("core.boundary_virt_s", "virt_s", "lower", kindDet),
	layer("framework.codec_ns_per_call", "ns", "lower", kindTraced),
	layer("framework.wire_bytes_per_call", "B", "lower", kindTraced),
	layer("framework.exec_host_s", "s", "lower", kindTraced),
	layer("ipc.round_trips", "count", "lower", kindDet),
	layer("ipc.bytes_moved", "B", "lower", kindDet),
	layer("ipc.bytes_moved.noldc", "B", "lower", kindDet),
	layer("ipc.bytes_per_round_trip", "B", "lower", kindDet),
	layer("object.lazy_copies", "count", "higher", kindDet),
	layer("object.eager_copies", "count", "lower", kindDet),
	layer("object.lazy_fraction", "ratio", "higher", kindDet),
	layer("object.checkpoints", "count", "lower", kindDet),
	layer("mem.perm_flips", "count", "lower", kindDet),
	layer("mem.pages_flipped", "count", "lower", kindDet),
	layer("kernel.syscall_denials", "count", "lower", kindDet),
	layer("executor.queue_wait_p50_us", "virt_us", "lower", kindDet),
	layer("executor.queue_wait_tail_us", "virt_us", "lower", kindDet),
	layer("executor.busy_ratio", "ratio", "higher", kindDet),
	layer("executor.critical_path_ms", "virt_ms", "lower", kindDet),
	layer("executor.serve_host_s", "s", "lower", kindTraced),
	layer("virt_tail_us.r20k", "virt_us", "lower", kindDet),
	layer("virt_tail_us.r50k", "virt_us", "lower", kindDet),
	layer("virt_tail_us.r60k", "virt_us", "lower", kindDet),
	layer("virt_tail_us.r70k", "virt_us", "lower", kindDet),
	layer("sched.rebalance_host_ms", "ms", "lower", kindTraced),
	layer("sched.moved_sessions", "count", "lower", kindDet),
	layer("partition.warm_ratio", "ratio", "higher", kindDet),
	layer("partition.cold_misses", "count", "lower", kindDet),
	layer("vclock.samples", "count", "lower", kindDet),
	layer("vclock.percentile_host_ms", "ms", "lower", kindTraced),
	layer("host_share.codec", "ratio", "lower", kindTraced),
	layer("host_share.futex", "ratio", "lower", kindTraced),
	layer("host_share.gc", "ratio", "lower", kindTraced),
	layer("trace.host_ops_per_cpu_s.untraced", "1/cpu_s", "higher", kindHost),
	layer("trace.host_ops_per_cpu_s.traced", "1/cpu_s", "higher", kindHost),
	layer("trace.overhead_pct", "%", "lower", kindHost),
}

var byName = func() map[string]def {
	m := make(map[string]def, len(catalog))
	for i := range catalog {
		catalog[i].order = i
		m[catalog[i].name] = catalog[i]
	}
	return m
}()
