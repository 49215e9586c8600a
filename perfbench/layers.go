package main

// layer is one per-layer metric with the prediction it carries: which
// end-to-end metric it should move, on which workload that shows, and
// where the layer does so little that the prediction is no change.
// Metrics of a layer that does no work in a workload read 0 there. The
// request latencies named here (hit_sweep_p50_ms, hit_sweep_p90_ms,
// extend_p50_ms) are printed beside the end-to-end metrics of
// nocd_sweeps.
type layer struct {
	name, unit           string
	moves, shows, absent string
}

const (
	wMesh = "mesh64_H_central"
	wGrid = "grid256_HML_warm"
	wNocd = "nocd_sweeps"
	wSims = "mesh64_H_central and grid256_HML_warm"
	wBoth = "both simulator workloads"
	wNone = "-"
)

var layers = []layer{
	// internal/noc/bless
	{"bless.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wGrid},
	{"noc.flit_hops_per_node_cycle", "count", "node_cycles_per_s", wMesh, wGrid},
	{"noc.deflections_per_hop", "count", "node_cycles_per_s", wMesh, wGrid},
	// internal/noc/buffered, internal/noc/hierring
	{"buffered.self_ns_per_node_cycle", "ns", "points_per_s, node_cycles_per_s", wGrid, wMesh},
	{"hierring.self_ns_per_node_cycle", "ns", "points_per_s, node_cycles_per_s", wGrid, wMesh},
	// internal/noc (NIC, flit pool), internal/topology
	{"noc.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wBoth, wNocd},
	{"topology.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wBoth, wNocd},
	// internal/cpu, internal/cache, internal/trace, internal/rng
	{"cpu.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"cache.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"trace.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"rng.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"cpu.retired_per_node_cycle", "count", "node_cycles_per_s", wMesh, wNocd},
	{"cache.l1_mpki", "count", "node_cycles_per_s", wMesh, wNocd},
	// internal/core
	{"core.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, "baseline and static points of " + wGrid},
	{"core.throttled_node_epochs", "count", "node_cycles_per_s", wMesh, "baseline and static points of " + wGrid},
	// internal/sim
	{"sim.new_ms", "ms", "node_cycles_per_s, setup_s", wMesh, wNocd},
	{"sim.run_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"sim.self_ns_per_node_cycle", "ns", "node_cycles_per_s", wMesh, wNocd},
	{"sim.instance_spread", "ratio", "node_cycles_per_s (noise, not speed)", wMesh, wNocd},
	{"runtime.allocs_per_node_cycle", "count", "node_cycles_per_s", wMesh, wNocd},
	// internal/snap and the per-package snapshot codecs
	{"snap.snapshot_ms", "ms", "points_per_s (grid), extend_p50_ms", wGrid, wMesh},
	{"snap.restore_ms", "ms", "points_per_s (grid), extend_p50_ms", wGrid, wMesh},
	{"snap.blob_mb", "MB", "points_per_s", wGrid, wMesh},
	{"snap.store_put_ms", "ms", "points_per_s (grid), extend_p50_ms", wGrid, wMesh},
	{"snap.store_get_ms", "ms", "points_per_s (grid), extend_p50_ms", wGrid, wMesh},
	// internal/runner
	{"runner.prefix_ms", "ms", "points_per_s", wGrid, wMesh},
	{"runner.prefix_wait_ms", "ms", "points_per_s", wGrid, wMesh},
	{"runner.point_ms", "ms", "points_per_s", wGrid, wMesh},
	{"runner.overhead_ms", "ms", "points_per_s", wGrid, wMesh},
	{"runner.prefixes_per_plan", "count", "points_per_s (useful = 2)", wGrid, wMesh},
	{"runner.cache_key_us", "us", "points_per_s", wGrid + ", " + wNocd, wMesh},
	// internal/obs
	{"obs.self_ns_per_node_cycle", "ns", "points_per_s", wNocd, wMesh + " (collectors off)"},
	// internal/serve, from the daemons' job traces
	{"serve.queue_wait_ms", "ms", "hit_sweep_p50_ms, hit_sweep_p90_ms, points_per_s", wNocd, wSims},
	{"serve.cache_lookup_ms", "ms", "hit_sweep_p50_ms, hit_sweep_p90_ms, points_per_s", wNocd, wSims},
	{"serve.simulate_ms", "ms", "points_per_s", wNocd, wSims},
	{"serve.checkpoint_ms", "ms", "points_per_s, extend_p50_ms", wNocd, wSims},
	{"serve.export_ms", "ms", "points_per_s", wNocd, wSims},
	{"serve.runs_cached", "count", "hit_sweep_p50_ms, points_per_s", wNocd, wSims},
	{"serve.runs_fresh", "count", "points_per_s", wNocd, wSims},
	// internal/fleet
	{"fleet.first_event_ms", "ms", "hit_sweep_p50_ms, points_per_s", wNocd, wSims},
	{"fleet.dispatch_ms", "ms", "hit_sweep_p50_ms, points_per_s", wNocd, wSims},
	{"fleet.overhead_ms", "ms", "points_per_s", wNocd, wSims},
	{"fleet.dispatched", "count", "points_per_s", wNocd, wSims},
	{"fleet.retried", "count", "points_per_s (useful = 0)", wNocd, wSims},
	{"fleet.stolen", "count", "points_per_s (useful = 0)", wNocd, wSims},
	{"fleet.useful_dispatch_ratio", "ratio", "points_per_s", wNocd, wSims},
	// Go runtime and standard library
	{"runtime.gc_share", "fraction", "points_per_s", wGrid + " (blobs), " + wNocd, wMesh},
	{"runtime.alloc_bytes_per_op", "bytes", "points_per_s", wNocd + ", " + wGrid, wMesh},
	{"json.self_ms_per_op", "ms", "hit_sweep_p50_ms, points_per_s", wNocd, wSims},
	{"http.self_ms_per_op", "ms", "hit_sweep_p50_ms, points_per_s", wNocd, wSims},
	{"sha256.self_ms_per_op", "ms", "points_per_s", wNocd + ", " + wGrid + " (store checksums)", wMesh},
	{"wire.bytes_per_hit_sweep", "bytes", "hit_sweep_p50_ms", wNocd, wSims},
	// the benchmark itself
	{"bench.tracing_overhead_pct", "%", "none: cost of the traced phase against the untraced one", "all", wNone},
}
