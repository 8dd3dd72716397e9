"""Ablation — core frequency (the paper's footnote 4 configuration).

All measurements run at (core/mesh/memory) = (533/800/800) MHz. The SCC
can re-clock tiles at runtime (dividers of 1600 MHz); this ablation
down-clocks the ping-pong pair and shows that on-chip communication
throughput scales with the *core* clock — the P54C's copy loops, not
the mesh, bound RCCE's on-chip performance, which is why the paper
reports core frequency prominently.
"""

from repro.apps.pingpong import run_pingpong
from repro.bench import format_table
from repro.scc.power import GLOBAL_CLOCK_MHZ
from repro.vscc.system import VSCCSystem

from conftest import record

DIVIDERS = (3, 4, 8)  # 533 / 400 / 200 MHz
SIZE = 65536


def _throughput(divider: int) -> float:
    system = VSCCSystem(num_devices=1)
    device = system.devices[0]
    tiles = {device.core(0).tile, device.core(10).tile}

    def reclock():
        for tile in tiles:
            yield from device.power.set_frequency(0, tile, divider)

    system.sim.spawn(reclock())
    system.sim.run()
    [point] = run_pingpong(system, 0, 10, sizes=[SIZE], iterations=3)
    return point.throughput_mbps


def test_frequency_scaling(benchmark, once):
    def run():
        return {d: _throughput(d) for d in DIVIDERS}

    results = once(run)
    print()
    print(
        format_table(
            ["divider", "core MHz", "throughput MB/s", "vs 533 MHz"],
            [
                (d, GLOBAL_CLOCK_MHZ / d, results[d], results[d] / results[3])
                for d in DIVIDERS
            ],
        )
    )
    record(benchmark, throughput_by_divider={d: round(v, 1) for d, v in results.items()})
    # Communication is core-clock bound: halving the clock roughly
    # halves the throughput.
    assert 0.9 * (3 / 4) <= results[4] / results[3] <= 1.02 * (3 / 4) + 0.05
    assert 0.9 * (3 / 8) <= results[8] / results[3] <= 1.1 * (3 / 8) + 0.05
