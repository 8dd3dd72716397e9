"""Measuring a batch workload: one long simulation of a fixed input.

``bt_a225`` and ``rpc_bursty`` share this driver. A *job* is one
request to simulate the workload's input: build the system, run it,
check the simulated outputs. Jobs run back to back, so each is due when
the previous one finishes; its latency is build plus run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from common import OUT_DIR, Outcome, counter_metrics, latency_ratio_err_pct, peak_rss_mb
from pace import Pacer
from spans import LAYERS, LayerTracer, SpanRecorder
from stats import TAIL, error_ratio, median, percentile, samples_beyond

#: A batch run always makes at least this many jobs, however short ``--seconds``.
MIN_JOBS = 3
#: Builds timed for ``setup_s`` between two timings of the reference loop.
SETUP_BLOCK = 5


@dataclass
class Batch:
    name: str
    #: Returns the built objects; the first is the ``VSCCSystem``.
    build: Callable[[], tuple]
    #: ``simulate(*built, lap=lap)`` -> simulated outputs, a dict holding
    #: at least ``sim_now_ns``, ``events`` and ``metrics`` (the system
    #: snapshot). A long simulation may call ``lap()`` between slices of
    #: its events so that its pace is taken more than once (see pace.py).
    simulate: Callable[..., dict]
    #: Problems found in one job's outputs (empty when correct).
    check: Callable[[dict], list[str]]
    #: Operations one job attempts (ranks, or RPCs).
    ops_per_job: int
    #: Operations of a finished job that failed.
    failed_ops: Callable[[dict], int]
    #: Simulated results reported by the traced run, name -> (value, unit).
    results: Callable[[dict], dict]
    #: Builds timed for ``setup_s``.
    setup_repeats: int


def _job(
    batch: Batch, out: Outcome, lap: Callable[[], object] = lambda: None,
) -> tuple[Optional[dict], float, float]:
    """One job: ``(outputs or None, build seconds, run seconds)``."""
    t0 = time.perf_counter()
    built = batch.build()
    t1 = time.perf_counter()
    out.attempted += batch.ops_per_job
    try:
        outputs = batch.simulate(*built, lap=lap)
    except Exception as exc:  # noqa: BLE001 - a failed job is reported, not raised
        out.failed += batch.ops_per_job
        out.fail(f"{batch.name} job raised {type(exc).__name__}: {exc}")
        return None, t1 - t0, time.perf_counter() - t1
    run_s = time.perf_counter() - t1
    out.failed += batch.failed_ops(outputs)
    for problem in batch.check(outputs):
        out.fail(problem)
    return outputs, t1 - t0, run_s


def measure(batch: Batch, seconds: float) -> Outcome:
    """Tracing off: every end-to-end metric."""
    out = Outcome(attempted=0, failed=0, correct=True)
    # Host times at reference pace (see pace.py): the reference loop runs
    # between blocks of builds, between jobs and between a job's slices.
    pacer = Pacer()
    setup, raw_setup = [], []
    for block in range(0, batch.setup_repeats, SETUP_BLOCK):
        times = []
        for _ in range(min(SETUP_BLOCK, batch.setup_repeats - block)):
            t0 = time.perf_counter()
            batch.build()
            times.append(time.perf_counter() - t0)
        _wall, pace = pacer.lap()
        setup.extend(t * pace for t in times)
        raw_setup.extend(times)

    # Jobs until ``seconds`` have passed: a slow stretch of the box makes
    # fewer jobs, not a longer run.
    runs, latencies, walls, paces, first, rss_mb = [], [], [], [], None, None
    end = time.perf_counter() + seconds
    while len(runs) < MIN_JOBS or time.perf_counter() < end:
        segments: list[tuple[float, float]] = []
        pacer.start()
        outputs, build_s, _run_s = _job(batch, out, lambda: segments.append(pacer.lap()))
        segments.append(pacer.lap())
        walls.append(sum(wall for wall, _pace in segments))
        latencies.append(sum(wall * pace for wall, pace in segments))
        runs.append(latencies[-1] - build_s * segments[0][1])
        paces.extend(pace for _wall, pace in segments)
        if len(runs) == MIN_JOBS:
            # Peak memory over a set amount of work, as the job count
            # follows the speed (BT's peak grows about 1.2 MB a job).
            rss_mb = peak_rss_mb()
        if outputs is None:
            break
        if first is None:
            first = outputs
        elif outputs != first:
            out.fail(f"{batch.name} is nondeterministic: job {len(runs)} differs from job 1")

    # Medians: one job is in flight at a time, so the rate is one over
    # the job latency.
    out.put("run_s", median(runs), "s")
    out.put("setup_s", median(setup), "s")
    out.put("peak_rss_mb", rss_mb or peak_rss_mb(), "MB")
    out.put("job_p50_ms", median(latencies) * 1e3, "ms")
    out.put("job_p95_ms", percentile(latencies, TAIL) * 1e3, "ms")
    out.put("jobs_per_s", median([1.0 / lat for lat in latencies]), "1/s")
    out.put("latency_ratio_err_pct", latency_ratio_err_pct(), "%")
    out.notes.append(
        f"{len(latencies)} jobs back to back, {samples_beyond(len(latencies), TAIL)} "
        f"beyond p{TAIL}; {len(setup)} builds timed for setup_s"
    )
    out.notes.append(
        f"raw wall: job p50 {median(walls) * 1e3:.3f} ms, p{TAIL} "
        f"{percentile(walls, TAIL) * 1e3:.3f} ms, setup {median(raw_setup):.6f} s; "
        f"pace factor {min(paces):.3f}-{max(paces):.3f}"
    )
    if first is not None:
        out.notes.append(
            f"simulated: sim_now_ns={first['sim_now_ns']!r} events={first['events']}"
        )
        for name, (value, unit) in batch.results(first).items():
            out.notes.append(f"simulated: {name} = {value!r} {unit}")
    out.notes.append(f"error_ratio = {error_ratio(out.failed, out.attempted)!r}")
    return out


def traced(batch: Batch) -> Outcome:
    """One untraced job, then the same job traced; per-layer metrics."""
    out = Outcome(attempted=0, failed=0, correct=True)
    base, build_s, run_s = _job(batch, out)
    rec = SpanRecorder()
    with LayerTracer(rec):
        traced_out, _traced_build_s, traced_run_s = _job(batch, out)
    if base is None or traced_out is None:
        return out
    if traced_out != base:
        out.fail("the traced run changed the simulated outputs")
    path = rec.save(OUT_DIR / f"{batch.name}-spans.npz")
    out.notes.append(f"{len(rec)} spans written to {path.name}")

    for name, (value, unit) in counter_metrics(base["metrics"]).items():
        out.put(name, value, unit)
    self_s = rec.layer_self_s()
    for layer in LAYERS:
        out.put(f"{layer}.self_s", self_s[layer], "s")
    out.notes.append(f"self time outside the layers: {self_s.get('other', 0.0):.4f} s")
    out.put("sim.us_per_event", run_s / base["events"] * 1e6, "us")
    out.put("rcce.calls", rec.layer_calls("rcce"), "count")
    out.put("vscc.build_s", build_s, "s")
    for name, value_unit in batch.results(base).items():
        out.put(name, *value_unit)
    out.put("bench.error_ratio", error_ratio(out.failed, out.attempted), "ratio")
    out.put("bench.trace_overhead", traced_run_s / run_s, "ratio")
    return out
