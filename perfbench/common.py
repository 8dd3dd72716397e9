"""Pieces every workload shares: pinned configuration, memory, counters."""

from __future__ import annotations

import os
import resource
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

#: Where the traced run writes its spans (ignored by git).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The configuration every workload measures: the serial kernel, delay
#: fusion on, no fault plan. Passed explicitly, never read from REPRO_*.
KERNEL = "serial"
FUSE = True


@contextmanager
def pinned_env() -> Iterator[dict[str, str]]:
    """Hide every ``REPRO_*`` variable for the run and restore it after.

    A leaked ``REPRO_KERNEL=sharded`` or ``REPRO_FUSE=0`` would otherwise
    reach code that reads the environment (a bare ``Simulator()``, a
    forked serve worker) and silently measure another program. Yields
    what was hidden, so the report can say so.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in saved:
        del os.environ[key]
    try:
        yield saved
    finally:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(saved)


def check_pinned(system) -> None:
    """Refuse to measure a system that is not the pinned configuration."""
    from repro.sim.kernel import SerialKernel

    if not isinstance(system.kernel, SerialKernel):
        raise RuntimeError(f"expected the serial kernel, got {system.kernel!r}")
    if system.sim.fuse_delays is not FUSE:
        raise RuntimeError("expected delay fusion on")
    if system.fault_injector is not None:
        raise RuntimeError("expected no fault plan")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest reaped child)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def latency_ratio_err_pct() -> float:
    """|error| of the model's inter-device/on-chip latency ratio, in %.

    The model is validated only against ``PAPER_BANDS``; this is its
    error against the paper's 120x anchor, quoted beside every
    simulated figure the benchmark prints.
    """
    from repro.bench import PAPER_BANDS, latency_anchors

    ratio = latency_anchors()["ratio"]
    return abs(ratio / PAPER_BANDS["latency_ratio"].paper_value - 1.0) * 100.0


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int
    failed: int
    correct: bool
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append(f"CHECK FAILED: {message}")


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    name, _, rest = key.partition("{")
    labels = dict(
        item.split("=", 1) for item in rest.rstrip("}").split(",") if item
    )
    return name, labels


def series_sum(metrics: Mapping[str, float], name: str, **labels: str) -> float:
    """Sum of every ``name{...}`` series whose labels include ``labels``."""
    total = 0.0
    for key, value in metrics.items():
        series, have = _split_key(key)
        if series == name and all(have.get(k) == v for k, v in labels.items()):
            total += value
    return total


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(m: Mapping[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer counters from a ``VSCCSystem.metrics`` snapshot."""
    hits, misses = series_sum(m, "softcache.hits"), series_sum(m, "softcache.misses")
    rpc_hits, rpc_misses = series_sum(m, "rpc.cache.hits"), series_sum(m, "rpc.cache.misses")
    return {
        "sim.events": (series_sum(m, "sim.events"), "count"),
        "sim.fused_yields": (series_sum(m, "kernel.fused_yields"), "count"),
        "sim.processes_spawned": (series_sum(m, "sim.processes_spawned"), "count"),
        "scc.mesh_bytes": (series_sum(m, "mesh.link_bytes"), "B"),
        "scc.memctrl_wait_ns": (series_sum(m, "memctrl.fifo_wait_ns"), "ns"),
        "host.pcie_bytes": (series_sum(m, "pcie.bytes"), "B"),
        "host.pcie_transfers": (series_sum(m, "pcie.transfers"), "count"),
        "host.pcie_busy_ns": (series_sum(m, "pcie.busy_ns"), "ns"),
        "host.vdma_transfers": (series_sum(m, "vdma.transfers"), "count"),
        "host.softcache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "host.sched_requests.sync": (series_sum(m, "sched.requests", lane="sync"), "count"),
        "host.sched_requests.bulk": (series_sum(m, "sched.requests", lane="bulk"), "count"),
        "host.sched_requests.rpc": (series_sum(m, "sched.requests", lane="rpc"), "count"),
        "vscc.policy_decisions.vdma": (series_sum(m, "policy.decisions", scheme="vdma"), "count"),
        "vscc.policy_decisions.cached-get": (
            series_sum(m, "policy.decisions", scheme="cached-get"), "count"),
        "apps.rpc_coalesce_ratio": (
            ratio(series_sum(m, "rpc.coalesced_requests"), series_sum(m, "rpc.requests")),
            "ratio"),
        "apps.rpc_descriptors": (series_sum(m, "rpc.descriptors"), "count"),
        "apps.rpc_cache_hit_ratio": (ratio(rpc_hits, rpc_hits + rpc_misses), "ratio"),
        "apps.rpc_flushes.deadline": (series_sum(m, "rpc.flushes", cause="deadline"), "count"),
        "apps.rpc_flushes.full": (series_sum(m, "rpc.flushes", cause="full"), "count"),
    }
