"""Chaos harness: forked workers SIGKILLed mid-job.

The acceptance bar of the service layer: under repeated worker murder,
every job reaches exactly one terminal state (no lost jobs, no double
results, no starvation), retry budgets are honored, slots respawn, and
the jobs that do complete still produce their exact deterministic
fingerprints — a killed-and-retried simulation is bit-identical to an
undisturbed one.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.serve import JobSpec, SimService

from .conftest import run_async

# 800k events per attempt with a progress event every 50k: sixteen
# chunks, short enough to retry several times. The single-kill tests
# kill on an attempt's first progress event, which proves the attempt
# is mid-run with fifteen chunks still to go, however fast the kernel
# dispatches.
MEDIUM_SPIN = {"steps": 800_000, "step_ns": 10.0}


def spec(tenant="t", params=MEDIUM_SPIN, **kw):
    kw.setdefault("max_attempts", 5)
    kw.setdefault("progress_every_events", 50_000)
    return JobSpec(workload="spin", tenant=tenant, params=dict(params), **kw)


async def wait_started(handle):
    async for event in handle.events():
        if event["type"] == "started":
            return event


async def wait_mid_run(handle, attempt=1):
    """Return ``attempt``'s ``started`` event once its first ``progress``
    event has arrived, i.e. once the attempt is known to be mid-run."""
    started = None
    async for event in handle.events():
        if event["attempt"] != attempt:
            continue
        if event["type"] == "started":
            started = event
        elif event["type"] == "progress" and started is not None:
            return started


class TestSingleKill:
    def test_kill_mid_job_retries_to_completion(self):
        async def scenario():
            async with SimService(workers=1, pool="process") as service:
                handle = await service.submit(spec())
                started = await wait_mid_run(handle)
                service.chaos_kill_worker(int(started["worker"]))
                result = await handle.result(timeout=60)
                assert result.ok
                assert result.attempts == 2
                assert result.sim_now_ns == pytest.approx(8_000_000.0)
                types = [e["type"] for e in service.event_log]
                assert types.count("retrying") == 1
                assert types.count("result") == 1

        run_async(scenario())

    def test_kill_until_budget_exhausted(self):
        async def scenario():
            async with SimService(workers=1, pool="process") as service:
                handle = await service.submit(spec(max_attempts=2))
                await wait_mid_run(handle)
                service.chaos_kill_worker(0)
                # second attempt: wait until it is mid-run, kill again
                await wait_mid_run(handle, attempt=2)
                service.chaos_kill_worker(0)
                result = await handle.result(timeout=60)
                assert result.state == "failed"
                assert result.error["type"] == "WorkerDied"
                assert result.attempts == 2

        run_async(scenario())

    def test_kill_idle_worker_is_harmless(self):
        async def scenario():
            async with SimService(workers=1, pool="process") as service:
                service.chaos_kill_worker(0)
                await asyncio.sleep(0.2)  # let the exit + respawn land
                handle = await service.submit(
                    spec(params={"steps": 1000, "step_ns": 10.0})
                )
                result = await handle.result(timeout=60)
                assert result.ok and result.attempts == 1

        run_async(scenario())


class TestChaosFleet:
    def test_every_job_reaches_exactly_one_terminal_state(self):
        async def scenario():
            rng = random.Random(1234)
            async with SimService(workers=2, pool="process") as service:
                handles = [
                    await service.submit(spec(tenant=f"tenant{i % 3}"))
                    for i in range(8)
                ]
                # murder loop: kill a random worker every ~0.4 s while
                # the fleet drains
                for _ in range(6):
                    await asyncio.sleep(0.4)
                    if service.core.all_terminal():
                        break
                    service.chaos_kill_worker(rng.choice([0, 1]))
                results = await service.join(timeout=180)

                assert len(results) == 8
                for result in results:
                    assert result.state in ("completed", "failed")
                    if result.state == "completed":
                        assert result.sim_now_ns == pytest.approx(8_000_000.0)
                    else:
                        # only budget exhaustion may fail a job here
                        assert result.error["type"] == "WorkerDied"
                        assert result.attempts == 5
                # exactly one result event per job, nothing after it
                result_jobs = [
                    e["job_id"] for e in service.event_log if e["type"] == "result"
                ]
                assert sorted(result_jobs) == sorted(h.job_id for h in handles)
                assert service.core.all_terminal()
                # both slots are alive again at the end (respawned)
                assert all(service.pool.alive(w) for w in service.pool.workers())

        run_async(scenario())

    def test_post_chaos_service_still_serves(self):
        async def scenario():
            async with SimService(workers=2, pool="process") as service:
                first = await service.submit(spec(tenant="a"))
                await wait_started(first)
                service.chaos_kill_worker(0)
                service.chaos_kill_worker(1)
                await first.result(timeout=120)
                # fresh work on respawned workers completes cleanly
                after = [
                    await service.submit(
                        spec(tenant="b", params={"steps": 1000, "step_ns": 10.0})
                    )
                    for _ in range(4)
                ]
                results = [await h.result(timeout=60) for h in after]
                assert all(r.ok and r.attempts == 1 for r in results)

        run_async(scenario())
