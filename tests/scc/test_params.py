"""Unit tests for the SCC parameter/timing model."""

import pytest

from repro.scc.params import CACHE_LINE, SCCParams


@pytest.fixture
def params():
    return SCCParams()


def test_paper_configuration(params):
    # §4 footnote 4: (core/mesh/memory) = (533/800/800) MHz.
    assert params.core_freq_mhz == 533.0
    assert params.mesh_freq_mhz == 800.0
    assert params.mem_freq_mhz == 800.0
    # 48 P54C cores on 24 tiles, 6x4 mesh.
    assert params.num_cores == 48
    assert params.num_tiles == 24


def test_lmb_split(params):
    # Footnote 5: the 8 kB LMB holds MPB payload plus SF region.
    assert params.lmb_bytes_per_core == 8192
    assert params.mpb_payload_bytes + params.sf_bytes == 8192
    assert params.mpb_payload_bytes % CACHE_LINE == 0


def test_tile_coordinates_roundtrip(params):
    for tile in range(params.num_tiles):
        x, y = params.tile_xy(tile)
        assert params.tile_at(x, y) == tile
        assert 0 <= x < 6 and 0 <= y < 4


def test_cores_share_tiles(params):
    assert params.tile_of_core(0) == params.tile_of_core(1) == 0
    assert params.tile_of_core(46) == params.tile_of_core(47) == 23


def test_hops_metric(params):
    assert params.hops(0, 1) == 0          # same tile
    assert params.hops(0, 10) == 5         # (0,0) -> (5,0)
    assert params.hops(0, 47) == 8         # (0,0) -> (5,3)
    assert params.hops(10, 0) == params.hops(0, 10)


def test_remote_read_costs_about_100_cycles(params):
    # §3: "a communication path in x or y direction has a relatively
    # low latency (~100 core cycles)".
    typical = params.remote_read_ns(4)
    cycles = params.core_clock.to_cycles(typical)
    assert 60 <= cycles <= 150


def test_remote_read_grows_with_distance(params):
    costs = [params.remote_read_ns(h) for h in range(9)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_local_accesses_cheaper_than_remote(params):
    assert params.local_read_ns() < params.remote_read_ns(1)
    assert params.local_read_ns(l1_hit=True) < params.local_read_ns()


def test_validation():
    with pytest.raises(ValueError):
        SCCParams(sf_bytes=8192)
    with pytest.raises(ValueError):
        SCCParams(sf_bytes=100)  # not line multiple
    with pytest.raises(ValueError):
        SCCParams(tiles_x=0)
    with pytest.raises(ValueError):
        SCCParams().tile_at(6, 0)
    with pytest.raises(ValueError):
        SCCParams()._check_core(48)


def test_clocks_built_once_per_instance(params):
    import dataclasses
    import pickle

    from repro.sim.clock import Clock

    for attr, freq in (
        ("core_clock", params.core_freq_mhz),
        ("mesh_clock", params.mesh_freq_mhz),
        ("mem_clock", params.mem_freq_mhz),
    ):
        clock = getattr(params, attr)
        assert getattr(params, attr) is clock
        assert clock == Clock(freq)
        assert clock.period_ns == 1000.0 / freq
    faster = dataclasses.replace(params, core_freq_mhz=800.0)
    assert faster.core_clock == Clock(800.0)
    assert faster.mesh_clock == params.mesh_clock
    # the cached clocks are not fields: equality, hashing and pickling
    # still key on the parameter values alone.
    assert faster != params
    assert SCCParams() == params and hash(SCCParams()) == hash(params)
    assert "clock" not in repr(params)
    restored = pickle.loads(pickle.dumps(params))
    assert restored == params and restored.core_clock == params.core_clock
