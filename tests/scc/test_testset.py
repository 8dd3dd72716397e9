"""Unit tests for the test-and-set registers."""

import pytest

from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


def test_try_acquire_and_release():
    sim = Simulator()
    dev = SCCDevice(sim)
    tas = dev.tas
    assert tas.try_acquire(5)
    assert not tas.try_acquire(5)
    tas.release(5)
    assert tas.try_acquire(5)


def test_release_clear_register_raises():
    dev = SCCDevice(Simulator())
    with pytest.raises(RuntimeError):
        dev.tas.release(0)


def test_remote_tas_costs_more_than_local():
    dev = SCCDevice(Simulator())
    local = dev.tas.access_ns(0, 1)   # same tile
    remote = dev.tas.access_ns(0, 47)
    assert remote > local


def test_core_env_spin_lock():
    sim = Simulator()
    dev = SCCDevice(sim)
    dev.boot()
    order = []

    def prog(core_id, hold_ns):
        env = dev.core(core_id)
        yield from env.tas_acquire(0)
        order.append(("in", core_id, sim.now))
        yield hold_ns
        yield from env.tas_release(0)

    sim.spawn(prog(2, 500.0))
    sim.spawn(prog(10, 100.0))
    sim.run()
    assert [c for _s, c, _t in order] == [2, 10]
    assert order[1][2] > 500.0  # second waited for the hold
