"""The benchmark's metric catalogue: names and units, in report order.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks
that the two agree.
"""

#: Printed with tracing off, by every workload.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "jobs_per_s": "1/s",
    "latency_ratio_err_pct": "%",
}

#: Printed by the traced run. A workload that bypasses a layer reports
#: 0 for that layer's metrics.
PER_LAYER = {
    "sim.events": "count",
    "sim.fused_yields": "count",
    "sim.processes_spawned": "count",
    "sim.us_per_event": "us",
    "sim.self_s": "s",
    "scc.mesh_bytes": "B",
    "scc.memctrl_wait_ns": "ns",
    "scc.self_s": "s",
    "rcce.calls": "count",
    "rcce.self_s": "s",
    "ircce.self_s": "s",
    "host.pcie_bytes": "B",
    "host.pcie_transfers": "count",
    "host.pcie_busy_ns": "ns",
    "host.vdma_transfers": "count",
    "host.softcache_hit_ratio": "ratio",
    "host.sched_requests.sync": "count",
    "host.sched_requests.bulk": "count",
    "host.sched_requests.rpc": "count",
    "host.self_s": "s",
    "vscc.build_s": "s",
    "vscc.policy_decisions.vdma": "count",
    "vscc.policy_decisions.cached-get": "count",
    "vscc.self_s": "s",
    "apps.sim_gflops": "GFLOP/s",
    "apps.rpc_p50_us": "us",
    "apps.rpc_p99_us": "us",
    "apps.rpc_coalesce_ratio": "ratio",
    "apps.rpc_descriptors": "count",
    "apps.rpc_cache_hit_ratio": "ratio",
    "apps.rpc_flushes.deadline": "count",
    "apps.rpc_flushes.full": "count",
    "apps.self_s": "s",
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p99": "ms",
    "serve.run_ms.p50": "ms",
    "serve.overhead_ms.p50": "ms",
    "serve.peak_queued": "count",
    "serve.stream_events_per_job": "count",
    "serve.job_build_ms": "ms",
    "serve.job_sim_ms": "ms",
    "serve.job_snapshot_ms": "ms",
    "serve.self_s": "s",
    "bench.error_ratio": "ratio",
    "bench.gen_lag_ms": "ms",
    "bench.trace_overhead": "ratio",
}
