"""Workload ``rpc_bursty``: open-loop bursty RPC through the host dispatcher.

16 client ranks (8 on device 0, 8 on device 1) drive
:mod:`repro.apps.rpc` under ``ThresholdPolicy``. Arrivals are bursty
on/off with bounded-Pareto request and response sizes, open loop in
simulated time. Each rank's mean gap is about 94 us, which offers about
140-155 k req/s in total against roughly 300 k req/s of capacity.
Loads at or above about 290 k req/s grow a backlog; at this load the
simulated p50 stays near 95 us as the trace grows (see README.md).

Why this input: it uses the ``host`` layer the opposite way from
``bt_a225`` -- 16,000 small messages per job through the comm
task's rpc lane, coalescing, response batching and the serialization
cache. ``mesh.link_bytes`` is 0, so ``scc`` and ``rcce`` do almost no
work.

The trace is made from ``--seed`` before any timing starts; the program
receives only the generated calls.
"""

from __future__ import annotations

from batch import Batch
from common import FUSE, KERNEL, check_pinned

RANKS = tuple(range(8)) + tuple(range(48, 56))
CALLS_PER_RANK = 1000


def make_calls(seed: int) -> list:
    from repro.bench.arrivals import BurstyArrivals, ParetoSizes, generate_calls

    return generate_calls(
        ranks=RANKS,
        calls_per_rank=CALLS_PER_RANK,
        arrivals=BurstyArrivals(on_gap_ns=300.0, off_gap_ns=750_000.0, burst_mean=8.0),
        req_sizes=ParetoSizes(alpha=1.3, floor_bytes=24, cap_bytes=8192),
        resp_sizes=ParetoSizes(alpha=1.2, floor_bytes=48, cap_bytes=16384),
        seed=seed,
        priority_every=10,
    )


def expected_digest(calls) -> str:
    """The outcome digest of exactly-once delivery of ``calls``."""
    from repro.apps.rpc import RpcCompletion, outcome_digest

    return outcome_digest(
        RpcCompletion(
            req_id=c.req_id, rank=c.rank, req_bytes=c.req_bytes,
            resp_bytes=c.resp_bytes, method=c.method,
            issue_ns=c.issue_ns, done_ns=c.issue_ns,
        )
        for c in calls
    )


def build() -> tuple:
    from repro.apps.rpc import RpcParams, install_rpc
    from repro.vscc import ThresholdPolicy, VSCCSystem

    system = VSCCSystem(
        num_devices=2, policy=ThresholdPolicy(), kernel=KERNEL, fuse_delays=FUSE,
    )
    check_pinned(system)
    return system, install_rpc(system, RpcParams())


def workload(seed: int) -> Batch:
    from repro.apps.rpc import run_rpc

    calls = make_calls(seed)
    digest = expected_digest(calls)

    def simulate(system, dispatcher, lap) -> dict:
        del lap  # run_rpc plays the whole trace in one call
        report = run_rpc(system, calls, dispatcher=dispatcher)
        return {
            "sim_now_ns": system.sim.now,
            "events": system.sim.events_processed,
            "offered": report.offered,
            "completed": report.completed,
            "digest": report.digest,
            "p50_us": report.latency_percentile(50) / 1e3,
            "p99_us": report.latency_percentile(99) / 1e3,
            "metrics": report.run.metrics,
        }

    def check(outputs: dict) -> list[str]:
        problems = []
        if outputs["completed"] != outputs["offered"]:
            problems.append(
                f"rpc_bursty completed {outputs['completed']} of {outputs['offered']}"
            )
        if outputs["digest"] != digest:
            problems.append(f"rpc_bursty outcome digest {outputs['digest']} != {digest}")
        return problems

    def results(outputs: dict) -> dict:
        return {
            "apps.rpc_p50_us": (outputs["p50_us"], "us"),
            "apps.rpc_p99_us": (outputs["p99_us"], "us"),
        }

    return Batch(
        name="rpc_bursty",
        build=build,
        simulate=simulate,
        check=check,
        ops_per_job=len(calls),
        failed_ops=lambda outputs: outputs["offered"] - outputs["completed"],
        results=results,
        setup_repeats=100,
    )
