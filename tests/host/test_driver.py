"""Unit tests for the Host driver façade."""

import pytest

from repro.host.driver import Host, HostParams
from repro.scc.chip import SCCDevice
from repro.sim.engine import Simulator


def make_devices(sim, n, start=0):
    devices = [SCCDevice(sim, device_id=start + i) for i in range(n)]
    for dev in devices:
        dev.boot()
    return devices


def test_duplicate_device_ids_rejected():
    sim = Simulator()
    a = SCCDevice(sim, device_id=0)
    b = SCCDevice(sim, device_id=0)
    with pytest.raises(ValueError, match="duplicate"):
        Host(sim, [a, b])


def test_no_devices_rejected():
    with pytest.raises(ValueError):
        Host(Simulator(), [])


def test_host_params_validation():
    with pytest.raises(ValueError):
        HostParams(granule=0)
    with pytest.raises(ValueError):
        HostParams(service_ns=-1)


def test_fabric_installed_on_attach():
    sim = Simulator()
    devices = make_devices(sim, 2)
    host = Host(sim, devices)
    for dev in devices:
        assert dev.fabric is not None
        assert dev.sif.connected


def test_pcie_byte_accounting():
    sim = Simulator()
    devices = make_devices(sim, 2)
    host = Host(sim, devices)
    for dev in devices:
        for core in range(48):
            host.register_rank_regions(dev.device_id, core)
    from repro.scc.mpb import MpbAddr

    def prog():
        yield from devices[0].core(0).set_flag(MpbAddr(1, 0, 7680), 1)

    sim.spawn(prog())
    sim.run()
    stats = host.metrics_snapshot()
    assert stats["pcie.bytes{device=0,dir=up}"] > 0
    assert stats["pcie.bytes{device=1,dir=down}"] > 0


def test_require_extensions_message():
    sim = Simulator()
    host = Host(sim, make_devices(sim, 1), extensions_enabled=False)
    with pytest.raises(RuntimeError, match="transparent-routing prototype"):
        host.require_extensions("the vDMA controller")


def test_double_region_registration_rejected():
    sim = Simulator()
    host = Host(sim, make_devices(sim, 1))
    host.register_rank_regions(0, 3)
    with pytest.raises(ValueError, match="overlaps"):
        host.register_rank_regions(0, 3)
