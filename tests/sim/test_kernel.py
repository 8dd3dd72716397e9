"""Unit tests for the simulator's event queue (repro.sim.kernel)."""

import pytest

from repro.sim import Event, SerialKernel, Simulator


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
