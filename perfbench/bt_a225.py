"""Workload ``bt_a225``: NPB BT class A at Fig 7's 225-core point.

BT in model mode, 225 ranks over 5 devices, ``ThresholdPolicy``, one
timestep: one long batch run of 452,759 kernel events. Why this input:
it is the paper's headline scaling point, and most of its host time
goes to kernel dispatch, the SCC core/MPB/mesh model and RCCE/iRCCE.
Its bulk traffic splits between the two host-accelerated paths (344
vDMA decisions, 4,424 software-cache hits), so ``host`` and the
``vscc`` policy carry real load; ``serve`` is idle.

BT's input is fixed, so the seed changes nothing here and the
simulated fingerprint is pinned.
"""

from __future__ import annotations

from batch import Batch
from common import FUSE, KERNEL, check_pinned

NRANKS = 225
DEVICES = 5

#: Simulated fingerprint of the run. A change here is a change of the
#: model, not of its speed, and fails the run.
FINGERPRINT = {"sim_now_ns": 130985356.71797808, "events": 452759}
#: Kernel events per slice of a job: about half a second of host time,
#: short beside the box's slow and fast stretches.
SLICE_EVENTS = 50_000


def build() -> tuple:
    from repro.apps.npb import BTBenchmark
    from repro.vscc import ThresholdPolicy, VSCCSystem

    system = VSCCSystem(
        num_devices=DEVICES, policy=ThresholdPolicy(), kernel=KERNEL, fuse_delays=FUSE,
    )
    check_pinned(system)
    return system, BTBenchmark(clazz="A", nranks=NRANKS, niter=1, mode="model")


def simulate(system, bench, lap=lambda: None) -> dict:
    """Run BT to completion in slices of :data:`SLICE_EVENTS`, with
    ``lap()`` between slices; slicing leaves the simulation unchanged."""
    procs = system.spawn_ranks(bench.program, range(NRANKS))
    while True:
        before = system.sim.events_processed
        system.sim.run(max_events=SLICE_EVENTS)
        if system.sim.events_processed - before < SLICE_EVENTS:
            break
        lap()
    return {
        "sim_now_ns": system.sim.now,
        "events": system.sim.events_processed,
        "rank_elapsed_ns": {rank: proc.result for rank, proc in procs.items()},
        "gflops": bench.result().gflops_per_s,
        "metrics": system.metrics,
    }


def check(outputs: dict) -> list[str]:
    problems = []
    got = {k: outputs[k] for k in FINGERPRINT}
    if got != FINGERPRINT:
        problems.append(f"bt_a225 fingerprint {got} != pinned {FINGERPRINT}")
    missing = [r for r, v in outputs["rank_elapsed_ns"].items() if v is None]
    if len(outputs["rank_elapsed_ns"]) != NRANKS or missing:
        problems.append(f"bt_a225 ranks without a result: {missing}")
    return problems


def results(outputs: dict) -> dict:
    return {"apps.sim_gflops": (outputs["gflops"], "GFLOP/s")}


def workload(seed: int) -> Batch:
    del seed  # BT class A has one fixed input
    return Batch(
        name="bt_a225",
        build=build,
        simulate=simulate,
        check=check,
        ops_per_job=NRANKS,
        failed_ops=lambda outputs: 0,
        results=results,
        setup_repeats=50,
    )
