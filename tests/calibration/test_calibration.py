"""Calibration tests: the paper's quantitative anchors hold.

These are the load-bearing numbers of the reproduction (DESIGN.md §5).
They run the actual benchmark harness at reduced size and assert the
bands of :data:`repro.bench.runner.PAPER_BANDS`.
"""

import pytest

from repro.apps.pingpong import run_pingpong
from repro.bench import PAPER_BANDS, fig6a_onchip, latency_anchors
from repro.rcce.api import RcceOptions
from repro.vscc.schemes import CommScheme
from repro.vscc.system import VSCCSystem

SIZE = 262144


@pytest.fixture(scope="module")
def xdev_peaks():
    peaks = {}
    for scheme in CommScheme:
        system = VSCCSystem(num_devices=2, scheme=scheme)
        [point] = run_pingpong(system, 0, 48, sizes=[SIZE], iterations=3)
        peaks[scheme] = point.throughput_mbps
    return peaks


@pytest.fixture(scope="module")
def onchip_peaks():
    out = {}
    for pipelined in (False, True):
        session = VSCCSystem(num_devices=1, options=RcceOptions(pipelined=pipelined))
        [point] = run_pingpong(session, 0, 10, sizes=[SIZE], iterations=4)
        out[pipelined] = point.throughput_mbps
    return out


def test_onchip_peak_near_150(onchip_peaks):
    """§4.1: 'maximum on-chip communication throughput is about 150 MB/s'."""
    assert PAPER_BANDS["onchip_peak_mbps"].contains(onchip_peaks[True])


def test_pipelining_gain(onchip_peaks):
    gain = onchip_peaks[True] / onchip_peaks[False]
    assert PAPER_BANDS["rcce_vs_ircce_gain"].contains(gain)


def test_best_scheme_recovers_24_percent(onchip_peaks, xdev_peaks):
    """§5: 'recover 24 % of effective on-chip communication throughput'."""
    ratio = xdev_peaks[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA] / onchip_peaks[True]
    assert PAPER_BANDS["best_vs_onchip"].contains(ratio)


def test_cached_scheme_vs_limit(onchip_peaks, xdev_peaks):
    """§4.1: worst host-accelerated scheme at 71.72 % of the limit."""
    ratio = (
        xdev_peaks[CommScheme.LOCAL_PUT_REMOTE_GET]
        / xdev_peaks[CommScheme.HW_ACCEL_REMOTE_PUT]
    )
    assert PAPER_BANDS["cached_vs_limit"].contains(ratio)


def test_vdma_close_to_limit(xdev_peaks):
    ratio = (
        xdev_peaks[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA]
        / xdev_peaks[CommScheme.HW_ACCEL_REMOTE_PUT]
    )
    assert PAPER_BANDS["vdma_vs_limit"].contains(ratio)


def test_scheme_ordering(xdev_peaks):
    assert (
        xdev_peaks[CommScheme.TRANSPARENT]
        < xdev_peaks[CommScheme.LOCAL_PUT_REMOTE_GET]
        < xdev_peaks[CommScheme.LOCAL_PUT_LOCAL_GET_VDMA]
        <= 1.05 * xdev_peaks[CommScheme.HW_ACCEL_REMOTE_PUT]
    )


def test_latency_anchors_hold():
    anchors = latency_anchors()
    assert PAPER_BANDS["interdevice_rtt_cycles"].contains(anchors["interdevice_cycles"])
    assert PAPER_BANDS["latency_ratio"].contains(anchors["ratio"])
    assert 50 <= anchors["onchip_cycles"] <= 200


def test_mpb_cliff_at_8kb():
    """Footnote 5: an 8 kB message no longer fits one chunk.

    On-chip the extra flag round trip is cheap, so the dip is small; on
    the high-latency inter-device path (Fig 6b) the second transfer's
    synchronization costs a full host round trip and the cliff is
    pronounced — except for the pipelined vDMA scheme (§4.1).
    """
    session = VSCCSystem(num_devices=1)
    points = run_pingpong(session, 0, 10, sizes=[7680, 8192], iterations=3)
    per_byte = [p.oneway_ns / p.size for p in points]
    assert per_byte[1] > per_byte[0]  # visible on-chip, if slight

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_REMOTE_GET)
    points = run_pingpong(system, 0, 48, sizes=[7680, 8192], iterations=3)
    per_byte = [p.oneway_ns / p.size for p in points]
    assert per_byte[1] > per_byte[0] * 1.10

    system = VSCCSystem(num_devices=2, scheme=CommScheme.LOCAL_PUT_LOCAL_GET_VDMA)
    points = run_pingpong(system, 0, 48, sizes=[7680, 8192], iterations=3)
    per_byte = [p.oneway_ns / p.size for p in points]
    assert per_byte[1] < per_byte[0] * 1.05  # slope removed
