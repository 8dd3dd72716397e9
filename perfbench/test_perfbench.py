"""Tests of the benchmark's own arithmetic and plumbing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metrics  # noqa: E402
import pace  # noqa: E402
import serve_mixed  # noqa: E402
from common import Outcome, pinned_env, series_sum  # noqa: E402
from spans import LayerTracer, SpanRecorder, _resumptions, layer_of_module  # noqa: E402
from stats import error_ratio, median, percentile, samples_beyond  # noqa: E402


class FakeClock:
    """Each read returns the next scripted instant."""

    def __init__(self, *ticks: int):
        self.ticks = list(ticks)

    def __call__(self) -> int:
        return self.ticks.pop(0)


# -- self time ---------------------------------------------------------------


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8].
    rec = SpanRecorder(FakeClock(0, 1, 4, 5, 6, 8, 9, 10))
    a, b, c, d = (rec.name_id("apps", n) for n in "ABCD")
    rec.begin(a)
    rec.begin(b)
    rec.finish()
    rec.begin(c)
    rec.begin(d)
    rec.finish()
    rec.finish()
    rec.finish()
    assert [rec.self_time[n] for n in (a, b, c, d)] == [10 - 3 - 4, 3, 4 - 2, 2]
    assert [rec.total_time[n] for n in (a, b, c, d)] == [10, 3, 4, 2]
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert len(rec) == 4


def test_resumed_coroutine_gives_one_span_per_resumption():
    # The parent [0, 100] resumes a wrapped coroutine three times:
    # [10, 20], [30, 35] and [40, 41] (the last one returns).
    rec = SpanRecorder(FakeClock(0, 10, 20, 30, 35, 40, 41, 100))
    parent = rec.name_id("sim", "run")
    child = rec.name_id("rcce", "send")

    def body():
        got = yield "first"
        yield got * 2
        return "done"

    rec.begin(parent)
    gen = _resumptions(rec, body(), child, None)
    assert next(gen) == "first"
    assert gen.send(21) == 42
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    rec.finish()
    assert rec.calls[child] == 3
    assert rec.total_time[child] == 10 + 5 + 1
    assert rec.self_time[parent] == 100 - 16


def test_calibrated_overhead_is_charged_to_no_one():
    rec = SpanRecorder(FakeClock(0, 2, 4, 6, 8, 10))
    rec.overhead = 1.0
    a, b = rec.name_id("sim", "A"), rec.name_id("scc", "B")
    rec.begin(a)
    rec.begin(b)
    rec.finish()
    rec.begin(b)
    rec.finish()
    rec.finish()
    # A lasted 10, its children covered 4, and each child cost 1 of tracer time.
    assert rec.self_time[a] == 10 - 4 - 2
    assert rec.self_time[b] == 4


def test_exceptions_pass_through_the_resumption_wrapper():
    rec = SpanRecorder()
    nid = rec.name_id("host", "h")

    def body():
        try:
            yield 1
        except KeyError:
            yield "caught"

    gen = _resumptions(rec, body(), nid, None)
    assert next(gen) == 1
    assert gen.throw(KeyError("x")) == "caught"
    gen.close()
    assert rec.calls[nid] == 2


def test_layer_of_module():
    assert layer_of_module("repro.host.vdma") == "host"
    assert layer_of_module("repro.apps.npb.bt") == "apps"
    assert layer_of_module("repro.obs.metrics") == "other"
    assert layer_of_module("numpy") == "other"


def test_tracing_does_not_perturb_the_simulation():
    from repro.serve import JobSpec, execute_job

    # Ranks 0 and 48 sit on different devices, so host and vscc work too.
    spec = JobSpec(workload="pingpong", params={"sizes": (256, 9000), "ranks": (0, 48)},
                   num_devices=2, scheme="vdma", kernel="serial", fuse=True)
    plain = execute_job(spec)
    rec = SpanRecorder()
    with LayerTracer(rec):
        traced = execute_job(spec)
    assert traced == plain
    selfs = rec.layer_self_s()
    assert selfs["scc"] > 0 and selfs["vscc"] > 0 and selfs["host"] > 0
    # Everything is restored afterwards.
    from repro.scc.core import CoreEnv
    from repro.serve import job

    assert not hasattr(CoreEnv.mpb_read, "__wrapped__")
    assert not hasattr(job.execute_job, "__wrapped__")


# -- percentiles and ratios --------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0, 1.0, 3.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_samples_beyond_tells_how_far_a_tail_percentile_can_be_trusted():
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(1191, 99) == 11
    assert samples_beyond(5, 99) == 0
    assert samples_beyond(0, 99) == 0


def test_median_interpolates_even_samples():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_error_ratio_bounds():
    assert error_ratio(0, 10) == 0.0
    assert error_ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        error_ratio(0, 0)
    with pytest.raises(ValueError):
        error_ratio(5, 4)


def test_error_ratio_counts_a_failing_deadlock_job():
    from repro.serve import JobSpec, SimService

    async def fleet():
        async with SimService(workers=1, pool="inline") as service:
            kinds = ["spin2k", "spin2k", "spin2k", "deadlock"]
            specs = [JobSpec(workload="spin", params={"steps": 2_000, "step_ns": 10.0},
                             kernel="serial", fuse=True) for _ in range(3)]
            specs.append(JobSpec(workload="deadlock", kernel="serial", fuse=True))
            handles = [await service.submit(spec) for spec in specs]
            return kinds, [await handle.result() for handle in handles]

    kinds, results = asyncio.run(fleet())
    out = Outcome(attempted=0, failed=0, correct=True)
    ledger = serve_mixed._Ledger(out)
    for kind, result in zip(kinds, results):
        ledger.record(kind, result)
    ledger.verify()
    assert [r.state for r in results] == ["completed"] * 3 + ["failed"]
    assert (out.attempted, out.failed) == (4, 1)
    assert error_ratio(out.failed, out.attempted) == 0.25
    assert not out.correct


# -- reference pace ------------------------------------------------------------


def test_pacer_scales_segments_and_leaves_the_reference_loop_out(monkeypatch):
    ref = pace.REFERENCE_S
    refs = iter([ref, 2 * ref, ref])
    monkeypatch.setattr(pace, "reference", lambda: next(refs))
    # Segment 1 runs [0, 1]; the reference loop then runs [1, 5] and is
    # left out; segment 2 runs [5, 6].
    monkeypatch.setattr(pace.time, "perf_counter", FakeClock(0.0, 1.0, 5.0, 6.0, 6.5))
    pacer = pace.Pacer()
    assert pacer.lap() == (1.0, pytest.approx(2 / 3))  # box at half speed after
    assert pacer.lap() == (1.0, pytest.approx(2 / 3))
    assert pace.factor(ref, ref) == 1.0


def test_reference_loop_is_timed():
    assert 0.0 < pace.reference() < 5.0


# -- plumbing ------------------------------------------------------------------


def test_catalogue_matches_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["bt_a225", "rpc_bursty", "serve_mixed"]


def test_pinned_env_hides_and_restores_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", "sharded")
    monkeypatch.delenv("REPRO_FUSE", raising=False)
    with pinned_env() as hidden:
        assert hidden == {"REPRO_KERNEL": "sharded"}
        assert "REPRO_KERNEL" not in os.environ
        os.environ["REPRO_FUSE"] = "0"
    assert os.environ["REPRO_KERNEL"] == "sharded"
    assert "REPRO_FUSE" not in os.environ


def test_series_sum_matches_labels():
    snap = {
        "pcie.bytes{device=0,dir=up}": 1.0,
        "pcie.bytes{device=1,dir=down}": 2.0,
        "pcie.bytes_total": 99.0,
        "sched.requests{device=0,lane=rpc}": 5.0,
        "sched.requests{device=1,lane=rpc}": 6.0,
        "sched.requests{device=1,lane=sync}": 7.0,
    }
    assert series_sum(snap, "pcie.bytes") == 3.0
    assert series_sum(snap, "sched.requests", lane="rpc") == 11.0
    assert series_sum(snap, "missing") == 0.0
