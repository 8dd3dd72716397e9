"""Unit tests for the VSCCSystem façade."""

import pytest

from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem


def test_full_system_has_240_ranks():
    system = VSCCSystem(num_devices=5)
    assert system.num_ranks == 240


def test_failures_shrink_rank_space():
    system = VSCCSystem(num_devices=5, failure_prob=0.05, seed=3)
    assert system.num_ranks < 240
    # "we have extended the startup script of RCCE thereby that it
    # creates a new configuration file with all available cores" (§4)
    assert system.config.total_cores == system.num_ranks
    # the config file round-trips through its text form
    from repro.rcce.config import SccConfigFile

    assert SccConfigFile.from_text(system.config.to_text()) == system.config


def test_seed_reproducible():
    a = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    b = VSCCSystem(num_devices=2, failure_prob=0.1, seed=42)
    assert a.config == b.config


def test_extensions_follow_scheme():
    assert VSCCSystem(num_devices=2, scheme=CommScheme.TRANSPARENT).host.extensions_enabled is False
    assert VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA).host.extensions_enabled is True


def test_regions_registered_for_every_core():
    system = VSCCSystem(num_devices=2)
    from repro.host.regions import RegionKind
    from repro.scc.mpb import MpbAddr

    assert system.host.regions.classify(MpbAddr(1, 47, 0), 32) is RegionKind.BUFFER
    assert system.host.regions.classify(MpbAddr(0, 0, 7681)) is RegionKind.FLAG


@pytest.mark.parametrize(
    "build",
    [
        dict(num_devices=2),
        dict(num_hosts=2, devices_per_host=1),
    ],
    ids=["1host", "2hosts"],
)
def test_build_regions_match_per_core_registration(build):
    from repro.host.regions import Region, RegionKind, RegionRegistry
    from repro.scc.mpb import MpbAddr

    system = VSCCSystem(**build)
    p = system.params
    reference = RegionRegistry()
    for device in system.devices:
        for core in device.available_cores:
            reference.register(
                Region(device.device_id, core, 0, p.mpb_payload_bytes, RegionKind.BUFFER)
            )
            reference.register(
                Region(device.device_id, core, p.mpb_payload_bytes, p.sf_bytes, RegionKind.FLAG)
            )
    probes = [(0, 32), (7648, 32), (7600, 200), (7680, 1), (8191, 1), (8100, 200)]
    assert len(system.hosts) == build.get("num_hosts", 1)
    for host in system.hosts:
        for device in system.devices:
            d = device.device_id
            for c in range(p.num_cores):
                assert host.regions.regions_of(d, c) == reference.regions_of(d, c)
                for offset, length in probes:
                    addr = MpbAddr(d, c, offset)
                    assert host.regions.classify(addr, length) is reference.classify(
                        addr, length
                    )
        with pytest.raises(ValueError, match="overlaps"):
            host.regions.register(Region(0, 5, 7000, 1000, RegionKind.BUFFER))
        with pytest.raises(ValueError, match="overlaps"):
            host.register_rank_regions(1, 5)


def test_build_computes_each_region_pair_once():
    from repro.host.regions import rank_regions

    rank_regions.cache_clear()
    system = VSCCSystem(num_hosts=2, devices_per_host=2)
    cores = sum(len(device.available_cores) for device in system.devices)
    info = rank_regions.cache_info()
    # every host registers every core: the first host computes the pair,
    # the second reuses it
    assert (info.misses, info.hits) == (cores, cores)


def test_launch_subset_and_results():
    system = VSCCSystem(num_devices=2)

    def program(comm):
        yield from comm.env.compute(cycles=1)
        return comm.rank

    result = system.run(program, ranks=[0, 90])
    assert result.results == {0: 0, 90: 90}


def test_traffic_matrix_shape():
    system = VSCCSystem(num_devices=2)
    matrix = system.traffic_matrix()
    assert matrix.shape == (96, 96)
    assert matrix.sum() == 0
