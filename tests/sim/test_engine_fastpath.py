"""Unit tests for the kernel hot paths: bare-number yields + zero-delay lane.

These pin the behaviours the hot-path overhaul introduced: a bare
``float``/``int`` yield advances time by that many nanoseconds, negative
bare numbers are invalid yields, and the zero-delay fast lane preserves the
global (time, seq) dispatch order against heap-scheduled wake-ups.
"""

import pytest

from repro.sim.engine import Event, Simulator
from repro.sim.errors import DeadlockError, InvalidYield


def test_bare_float_yield_advances_time():
    sim = Simulator()

    def prog():
        yield 10.0
        yield 2.5
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(12.5)


def test_bare_int_yield_advances_time():
    sim = Simulator()

    def prog():
        yield 7
        yield 3
        return sim.now

    proc = sim.spawn(prog())
    sim.run()
    assert proc.result == pytest.approx(10.0)


def test_negative_bare_yield_is_invalid():
    sim = Simulator()

    def prog():
        yield -1.0

    sim.spawn(prog())
    with pytest.raises(InvalidYield):
        sim.run()


def test_zero_delay_yields_preserve_seq_order():
    """A zero-delay storm interleaves in exact spawn order, round-robin."""
    sim = Simulator()
    order = []

    def prog(name):
        for i in range(3):
            order.append((name, i))
            yield 0.0

    sim.spawn(prog("a"))
    sim.spawn(prog("b"))
    sim.run()
    assert order == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
    ]


def test_fast_lane_merges_with_heap_in_time_order():
    """Zero-delay wake-ups at t dispatch before heap entries at t' > t,
    and after heap entries scheduled earlier for the same time."""
    sim = Simulator()
    order = []

    def delayed():
        yield 5.0
        order.append("delayed@5")

    def chatty():
        yield 5.0
        order.append("chatty@5")
        yield 0.0
        order.append("chatty-zero@5")
        yield 1.0
        order.append("chatty@6")

    sim.spawn(delayed())
    sim.spawn(chatty())
    sim.run()
    assert order == ["delayed@5", "chatty@5", "chatty-zero@5", "chatty@6"]
    assert sim.now == pytest.approx(6.0)


def test_event_trigger_uses_fast_lane_deterministically():
    """Waiters woken by a trigger resume in registration order."""
    sim = Simulator()
    evt = Event(sim, "gate")
    order = []

    def waiter(name):
        yield evt
        order.append(name)

    for name in ("w1", "w2", "w3"):
        sim.spawn(waiter(name), name=name)

    def firer():
        yield 1.0
        evt.trigger("go")

    sim.spawn(firer())
    sim.run()
    assert order == ["w1", "w2", "w3"]


def test_run_until_with_fast_lane_pending():
    """run_until stops at the trigger even with zero-delay work queued."""
    sim = Simulator()
    evt = Event(sim, "done")
    ticks = []

    def spinner():
        for i in range(50):
            ticks.append(i)
            yield 0.0
        yield 100.0

    def firer():
        yield 2.0
        evt.trigger(42)

    sim.spawn(spinner(), name="daemon:spin")
    sim.spawn(firer())
    assert sim.run_until(evt) == 42
    assert sim.now == pytest.approx(2.0)
    assert len(ticks) == 50  # the t=0 fast-lane burst ran before t=2


def test_deadlock_detected_with_empty_fast_lane():
    sim = Simulator()

    def stuck(evt):
        yield evt

    sim.spawn(stuck(sim.event("never")))
    with pytest.raises(DeadlockError):
        sim.run()


def test_run_until_time_limit_still_enforced():
    from repro.sim.errors import SimulationError

    sim = Simulator()
    evt = sim.event("never")

    def ticker():
        while True:
            yield 10.0

    sim.spawn(ticker(), name="daemon:tick")
    with pytest.raises(SimulationError):
        sim.run_until(evt, limit=100.0)
