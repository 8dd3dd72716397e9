"""Ablation — iRCCE pipeline packet size (§2.2).

"Consequently, this protocol can accelerate point-to-point
communication, if the internal packet size is chosen appropriately."
Sweeps the packet size of the pipelined protocol: tiny packets drown in
per-packet synchronization, packets near half the MPB payload win, and
there is no room for anything larger (two slots must fit).
"""

from repro.apps.pingpong import run_pingpong
from repro.bench import format_table
from repro.rcce.api import RcceOptions
from repro.vscc.system import VSCCSystem

from conftest import record

PACKETS = (64, 256, 1024, 2048, 3840)
SIZE = 262144


def _throughput(packet: int) -> float:
    system = VSCCSystem(
        num_devices=1, options=RcceOptions(pipelined=True, pipeline_packet=packet)
    )
    [point] = run_pingpong(system, 0, 10, sizes=[SIZE], iterations=4)
    return point.throughput_mbps


def test_pipeline_packet_sweep(benchmark, once):
    def run():
        return {packet: _throughput(packet) for packet in PACKETS}

    results = once(run)
    print()
    print(
        format_table(
            ["packet B", "throughput MB/s"],
            [(p, results[p]) for p in PACKETS],
        )
    )
    record(benchmark, throughput_by_packet={p: round(v, 1) for p, v in results.items()})
    # Appropriate packet choice matters: the best packet beats the
    # smallest by a meaningful margin, and throughput is monotone-ish
    # towards the half-payload slot size.
    assert results[3840] > results[64] * 1.08
    assert max(results, key=results.get) >= 1024
