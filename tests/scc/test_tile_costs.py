"""The cost records cores share across devices and systems."""

import dataclasses

import pytest

from repro.scc.core import CoreCosts, core_costs
from repro.scc.params import SCCParams
from repro.vscc.system import VSCCSystem

PARAMS = [
    SCCParams(),
    SCCParams(core_freq_mhz=800.0),
    SCCParams(tiles_x=4, mesh_freq_mhz=1000.0),
]


@pytest.mark.parametrize("params", PARAMS, ids=["default", "800MHz", "4x4"])
def test_core_constants_match_the_params_bit_for_bit(params):
    system = VSCCSystem(num_devices=1, params=params)
    p = SCCParams(**dataclasses.asdict(params))  # an equal, unshared value
    clock = p.core_clock
    for core in system.devices[0].cores:
        c = core.core_id
        assert core._core_clock == clock
        assert (core._tile_x, core._tile_y) == p.core_xy(c)
        assert core.xyz == (*p.core_xy(c), 0)
        assert core._local_read_hit_ns == p.local_read_ns(l1_hit=True)
        assert core._local_read_ns == p.local_read_ns()
        assert core._local_write_ns == p.local_write_ns()
        assert core._cl1invmb_ns == clock.cycles(p.cl1invmb_cycles)
        assert core._poll_base_ns == clock.cycles(p.flag_poll_cycles) + p.local_read_ns()
        assert core._dram_read_line_ns == p.dram_read_line_ns()
        assert core._dram_write_line_ns == p.dram_write_line_ns()
        assert len(core._hops_table) == p.num_cores
        for other in range(p.num_cores):
            hops = p.hops(c, other)
            assert core._hops_table[other] == hops
            assert core._remote_read_ns[hops] == p.remote_read_ns(hops)
            assert core._remote_write_ns[hops] == p.remote_write_ns(hops)
            assert (
                core._remote_write_arrival_ns[hops] == p.remote_write_arrival_ns(hops)
            )


def test_equal_params_share_the_tile_tables():
    a = VSCCSystem(num_devices=2)
    b = VSCCSystem(num_devices=1)
    assert a.params is not b.params
    for tile in range(a.params.num_tiles):
        core = 2 * tile
        shared = a.devices[0].cores[core]._hops_table
        assert a.devices[0].cores[core + 1]._hops_table is shared
        assert a.devices[1].cores[core]._hops_table is shared
        assert b.devices[0].cores[core]._hops_table is shared
    assert a.devices[0].core_costs is b.devices[0].core_costs


def test_other_geometry_gets_its_own_tables():
    default = VSCCSystem(num_devices=1)
    narrow = VSCCSystem(num_devices=1, params=SCCParams(tiles_x=4))
    assert narrow.devices[0].core_costs is not default.devices[0].core_costs
    assert len(narrow.devices[0].cores[0]._hops_table) == 32
    assert len(default.devices[0].cores[0]._hops_table) == 48


def test_params_hashed_once_per_device_not_per_core():
    hashes = []

    class CountingParams(SCCParams):
        def __hash__(self):
            hashes.append(1)
            return super().__hash__()

    before = core_costs.cache_info()
    VSCCSystem(num_devices=3, params=CountingParams())
    after = core_costs.cache_info()
    assert len(hashes) == 3
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 2


def test_cache_is_bounded():
    assert core_costs.cache_info().maxsize is not None
    for freq in range(100, 100 + 2 * core_costs.cache_info().maxsize):
        core_costs(SCCParams(core_freq_mhz=float(freq)))
    assert core_costs.cache_info().currsize <= core_costs.cache_info().maxsize


def test_shared_tables_are_immutable():
    record = core_costs(SCCParams())
    assert isinstance(record, CoreCosts)
    with pytest.raises(AttributeError):
        record.local_read_ns = 0.0
    assert isinstance(record.tiles, tuple)
    x, y, hops_table = record.tiles[0]
    for table in (
        record.tiles,
        record.tiles[0],
        hops_table,
        record.remote_read_ns,
        record.remote_write_ns,
        record.remote_write_arrival_ns,
    ):
        assert isinstance(table, tuple)
        with pytest.raises(TypeError):
            table[0] = 0


def test_mutable_core_state_does_not_leak_between_systems():
    a = VSCCSystem(num_devices=1)
    b = VSCCSystem(num_devices=1)
    core_a, core_b = a.devices[0].cores[0], b.devices[0].cores[0]
    assert core_a.l1 is not core_b.l1
    assert core_a.wcb is not core_b.wcb
    assert core_a.stats is not core_b.stats

    core_a.l1.lookup(("mpb", 0, 0))
    core_a.wcb.store(("mpb", 0), 0, 8)
    core_a.stats["flag_polls"] += 5

    def downclock():
        yield from a.devices[0].power.set_frequency(0, core_a.tile, 6)

    a.sim.spawn(downclock(), name="downclock")
    a.sim.run()

    assert core_a.clock_scale == 2.0
    assert core_b.clock_scale == 1.0
    assert core_b.l1.hits == core_b.l1.misses == 0
    assert core_b.wcb.open_tag is None and core_b.wcb.stores == 0
    assert core_b.stats["flag_polls"] == 0
    # the shared record is untouched by the down-clock: b charges the
    # baseline cost, a twice that.
    assert core_b._cl1invmb_ns == core_a._cl1invmb_ns

    def timed(sim, core, out):
        t0 = sim.now
        yield from core.cl1invmb()
        out.append(sim.now - t0)

    spent_a, spent_b = [], []
    a.sim.spawn(timed(a.sim, core_a, spent_a), name="a")
    b.sim.spawn(timed(b.sim, core_b, spent_b), name="b")
    a.sim.run()
    b.sim.run()
    assert spent_b == [core_b._cl1invmb_ns]
    assert spent_a == [pytest.approx(2 * spent_b[0])]

