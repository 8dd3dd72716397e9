"""Unit tests for the simulator's event queue (repro.sim.kernel)."""

import math

import pytest

from repro.sim import Event, SerialKernel, Simulator
from repro.sim.errors import InvalidYield, ProcessFailed


# -- the kernel inputs that remain ---------------------------------------------


def test_spec_none_and_serial_build_serial():
    from repro.vscc.system import VSCCSystem

    assert isinstance(Simulator().kernel, SerialKernel)
    for spec in (None, "serial"):
        system = VSCCSystem(num_devices=1, kernel=spec)
        assert isinstance(system.kernel, SerialKernel)
        assert system.kernel is system.sim.kernel


def test_kernel_attaches_to_exactly_one_simulator():
    a, b = Simulator(), Simulator()
    assert a.kernel.sim is a
    assert b.kernel.sim is b
    assert a.kernel is not b.kernel


def test_spec_errors():
    from repro.vscc.system import VSCCSystem

    for spec in ("sharded", "sharded:4", "parallel", ""):
        with pytest.raises(ValueError, match="removed in repro 1.2"):
            VSCCSystem(num_devices=1, kernel=spec)


# -- dispatch ------------------------------------------------------------------


def _mixed_program(sim, log):
    """Two processes exchanging through timers and an event."""
    evt = Event(sim)

    def pinger():
        yield 2.5
        log.append(("ping", sim.now))
        evt.trigger("token")
        yield 1.0
        log.append(("ping-end", sim.now))

    def ponger():
        value = yield evt
        log.append(("pong", sim.now, value))
        yield 0.5
        log.append(("pong-end", sim.now))

    sim.spawn(pinger())
    sim.spawn(ponger())


@pytest.mark.parametrize("spec", ["serial"])
def test_mixed_program_identical_across_backends(spec):
    """A system built with an explicit kernel spec dispatches exactly
    like a bare simulator."""
    from repro.vscc.system import VSCCSystem

    baseline = Simulator()
    log_a = []
    _mixed_program(baseline, log_a)
    baseline.run()

    sim = VSCCSystem(num_devices=1, kernel=spec).sim
    log_b = []
    _mixed_program(sim, log_b)
    sim.run()

    assert log_b == log_a
    assert sim.now == baseline.now
    assert sim.events_processed == baseline.events_processed


def test_run_until_stops_at_horizon_boundary():
    sim = Simulator()
    ticks = []

    def ticker(period):
        while True:
            yield period
            ticks.append((period, sim.now))

    sim.spawn(ticker(3.0), name="t3")
    sim.spawn(ticker(5.0), name="t5")
    sim.run(until=12.0)
    assert sim.now == 12.0
    assert ticks == [
        (3.0, 3.0), (5.0, 5.0), (3.0, 6.0), (3.0, 9.0),
        (5.0, 10.0), (3.0, 12.0),
    ]


def test_serial_metrics_have_no_sharded_series():
    sim = Simulator()
    snap = sim.metrics_snapshot()
    # The kernel exports its delay-fusion and event-source counters…
    assert snap["kernel.fused_yields"] == 0.0
    # …and none of the removed sharded backend's window-protocol series.
    for key in ("kernel.shards", "kernel.windows", "kernel.preempts",
                "kernel.stale_discards", "kernel.lookahead_ns"):
        assert key not in snap


def test_event_source_attribution():
    sim = Simulator()
    log = []
    _mixed_program(sim, log)
    sim.run()
    snap = sim.metrics_snapshot()
    sources = {
        k: v for k, v in snap.items() if k.startswith("kernel.events{source=")
    }
    assert sources, "dispatch should attribute events to sources"
    assert sum(sources.values()) == float(sim.events_processed)


# -- inlined resume and heap bypass ----------------------------------------------


def _dispatch_program(sim, log):
    """Every kind of wake-up the kernel dispatches, ending in a solo run.

    Each resume and each callback appends ``(now, name)``, so the log is
    the dispatch order. Floats tie at equal times, ints and zeros go
    through the slow path, events and waitable-headed chains park, fused
    chains fold, ``call_at`` fires bare callbacks and one ``after`` timer
    is cancelled. Once the others are done, ``solo`` is the only pending
    process, so its wake-ups are carried past the heap; it fires
    ``mark`` in a step whose yield is carried.
    """
    evt = sim.event("evt")
    mark = sim.event("mark")

    def step(name):
        log.append((sim.now, name))

    def a():
        step("a")
        yield 1.0  # ties with b and with call_at at t=1
        step("a")
        yield 2  # int: the slow path
        step("a")
        yield 0.0  # zero float
        step("a")
        evt.trigger("token")
        yield 0  # int zero
        step("a")
        yield (0.5, 0.25)  # fused chain
        step("a")
        yield 1.25
        step("a")
        return "a-done"

    def b():
        step("b")
        yield 1.0
        step("b")
        value = yield evt
        step(f"b:{value}")
        yield (evt, 1.5)  # waitable-headed chain on a triggered event
        step("b")
        yield 0.75
        step("b")
        yield 0.75
        step("b")

    def c(waited):
        step("c")
        result = yield waited
        step(f"c:{result}")
        yield 0.5
        step("c")
        timer.cancel()
        yield 1.0
        step("c")
        yield 0.5  # ties with the queued wake-up of ``tie`` at t=7
        step("c")

    def tie():
        step("tie")
        yield 7.0
        step("tie")

    def solo():
        step("solo")
        yield 40.0
        step("solo")
        for _ in range(3):
            yield 2.0
            step("solo")
        mark.trigger()
        yield 2.0  # carried in the step that stops run_until(mark)
        step("solo")
        yield 0.0
        step("solo")
        yield 0.5
        step("solo")

    proc_a = sim.spawn(a(), name="a")
    sim.spawn(b(), name="b")
    sim.spawn(c(proc_a), name="c")
    sim.spawn(tie(), name="tie")
    sim.spawn(solo(), name="solo")
    sim.call_at(1.0, lambda: step("call_at"))
    sim.call_at(3.5, lambda: step("call_at"))
    sim.after(4.0, lambda: step("timer"))
    timer = sim.after(30.0, lambda: step("cancelled"))
    return mark


def _fresh():
    sim = Simulator(fuse_delays=True)
    log = []
    mark = _dispatch_program(sim, log)
    return sim, log, mark


def _unsliced():
    sim, log, _ = _fresh()
    sim.run()
    return log, sim.metrics_snapshot()


def _carried_times():
    """Wake times the loop carried, found one event at a time.

    A one-event slice whose step carried its own wake-up pushes it back
    on exit; the next dispatch is that entry, so its time is the one
    carried.
    """
    sim, _, _ = _fresh()
    times = []
    carried = False
    while True:
        bypass, before = sim.kernel.heap_bypass, sim.events_processed
        sim.run(max_events=1)
        if sim.events_processed == before:
            return times
        if carried:
            times.append(sim.now)
        carried = sim.kernel.heap_bypass > bypass


def test_dispatch_program_exercises_every_path():
    log, snap = _unsliced()
    names = {name for _t, name in log}
    assert {"call_at", "timer", "b:token", "c:a-done"} <= names
    assert "cancelled" not in names
    # A tie goes to the queued entry, never to the newer wake-up.
    assert log.index((7.0, "tie")) < log.index((7.0, "c"))
    assert snap["kernel.fused_yields"] > 0
    assert 0 < snap["kernel.heap_bypass"] <= snap["sim.events"]
    # t=3: a's zero float with only later entries queued. The cancelled
    # timer's stale entry at t=30 keeps solo's first wake-up at 40 in
    # the heap; after it, solo is alone and every wake-up is carried.
    assert _carried_times() == [3.0, 42.0, 44.0, 46.0, 48.0, 48.0, 48.5]


@pytest.mark.parametrize("max_events", range(1, 8))
def test_sliced_runs_match_unsliced(max_events):
    log, snap = _unsliced()
    sim, sliced, _ = _fresh()
    while True:
        before = sim.events_processed
        sim.run(max_events=max_events)
        if sim.events_processed - before < max_events:
            break
    assert sliced == log
    assert sim.metrics_snapshot() == snap


@pytest.mark.parametrize("carried", [3.0, 44.0, 48.0, 48.5])
@pytest.mark.parametrize("at", ["exact", "before"])
def test_until_cut_at_a_carried_wake_matches_unsliced(carried, at):
    log, snap = _unsliced()
    sim, cut, _ = _fresh()
    until = carried if at == "exact" else math.nextafter(carried, -math.inf)
    assert sim.run(until=until) == until
    assert all(t <= until for t, _name in cut)
    sim.run()
    assert cut == log
    assert sim.metrics_snapshot() == snap


def test_run_until_stopped_in_the_carrying_step_matches_unsliced():
    log, snap = _unsliced()
    sim, stopped, mark = _fresh()
    sim.run_until(mark)
    assert stopped[-1] == (46.0, "solo")
    # The wake-up carried by the stopping step went back on the heap.
    assert [entry[0] for entry in sim.kernel._queue] == [48.0]
    sim.run()
    assert stopped == log
    assert sim.metrics_snapshot() == snap


def test_lone_spin_bypasses_the_heap_once_per_float_yield():
    sim = Simulator()

    def spin():
        for _ in range(100):
            yield 3.0

    sim.spawn(spin())
    sim.run()
    assert sim.now == 300.0
    assert sim.events_processed == 101
    assert sim.metrics_snapshot()["kernel.heap_bypass"] == 100.0


def test_stop_iteration_value_reaches_waiter_from_inlined_resume():
    sim = Simulator()
    got = []

    def worker():
        yield 1.0
        return 42

    def waiter(proc):
        got.append((yield proc))

    sim.spawn(waiter(sim.spawn(worker())))
    sim.run()
    assert got == [42]


def _failing(sim):
    def worker():
        yield 1.0
        raise ValueError("boom")

    caught = []

    def waiter(proc):
        try:
            yield proc
        except ProcessFailed as exc:
            caught.append(exc)

    proc = sim.spawn(worker(), name="worker")
    sim.spawn(waiter(proc), name="waiter")
    return proc, caught


def test_inlined_resume_failure_raises_under_fail_fast():
    sim = Simulator(fail_fast=True)
    proc, _ = _failing(sim)
    with pytest.raises(ProcessFailed) as info:
        sim.run()
    assert isinstance(info.value.__cause__, ValueError)
    assert sim.failures == [proc]


def test_inlined_resume_failure_is_collected_without_fail_fast():
    sim = Simulator(fail_fast=False)
    proc, caught = _failing(sim)
    sim.run()
    assert sim.failures == [proc]
    assert isinstance(proc.failure, ValueError)
    assert len(caught) == 1 and isinstance(caught[0].__cause__, ValueError)


@pytest.mark.parametrize("payload", [None, "value"])
def test_negative_float_yield_message_on_both_paths(payload):
    """The inlined resume (no payload) and the slow path (a value
    payload) reject a negative float with the same message."""
    sim = Simulator()
    evt = sim.event()

    def neg():
        if payload is not None:
            yield evt
        yield -1.5

    sim.spawn(neg(), name="neg")
    if payload is not None:
        evt.trigger(payload)
    with pytest.raises(InvalidYield) as info:
        sim.run()
    assert str(info.value) == "process 'neg' yielded a negative delay -1.5"
