"""Host pace: how fast the machine runs Python right now.

A shared box runs in slow and fast stretches of tens of seconds to
minutes: other tenants' load slows every instruction, by up to 1.8x on
a shared 2-vCPU Xeon VM. A 30 s run can fall wholly in one stretch, so
a median over the run moves with the box (five runs of ``rpc_bursty``
spread 0.28 by IQR/median) and no run length the benchmark can afford
averages it out.

So every host-time end-to-end metric is measured next to a fixed
reference loop: :func:`reference` runs just before and just after the
timed work, and the work's wall time is scaled by
``REFERENCE_S / (mean of the two reference times)``. The result is the
work's seconds *at reference pace*: what it would take on a box where
the reference loop takes :data:`REFERENCE_S`. The simulator and the
reference slow down together (correlation 0.93 over 389 interleaved
pairs of short RPC jobs and reference loops on that VM), so a slower
program still reads slower, while a slower box does not. The raw wall
times are printed beside the scaled ones.

The reference is plain standard-library Python -- a heap and a dict,
the memory-bound kind of work of the simulator's event queue -- and
imports nothing from the program under test, so no change to the
program can change it. What it cannot separate is a change that
slows the interpreter itself for every caller.
"""

from __future__ import annotations

import heapq
import time

#: Seconds :func:`reference` takes at reference pace: about its time on
#: a quiet core of a 2-vCPU Xeon VM.
REFERENCE_S = 0.04

#: Entries of the reference loop's heap.
_ENTRIES = 60_000


def reference() -> float:
    """Wall seconds of one fixed reference loop.

    Fills a heap of :data:`_ENTRIES` integers while counting them in a
    dict, then drains it: about 2 MB of memory touched in the pattern of
    an event queue. A loop that fits in the core's own cache did not
    track the slow stretches (window spread 0.175 against 0.018 for this
    one): the other tenants slow memory, not arithmetic.
    """
    t0 = time.perf_counter()
    heap: list[int] = []
    counts: dict[int, int] = {}
    for i in range(_ENTRIES):
        heapq.heappush(heap, (i * 7919) % 10007)
        counts[i % 997] = counts.get(i % 997, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Wall seconds -> seconds at reference pace, for the interval between
    two :func:`reference` timings."""
    return 2.0 * REFERENCE_S / (before + after)


class Pacer:
    """Times work in segments, with the reference loop between them.

    Each :meth:`lap` ends a segment: it takes the segment's wall time,
    runs the reference loop, and paces the segment by the reference
    timings on either side of it. The reference loop's own time is in
    no segment.
    """

    def __init__(self) -> None:
        self._ref = reference()
        self._t0 = time.perf_counter()

    def start(self) -> None:
        """Start a segment now, leaving out the time since the last lap."""
        self._t0 = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        """``(wall seconds of the segment, its factor to reference pace)``."""
        wall = time.perf_counter() - self._t0
        ref = reference()
        pace = factor(self._ref, ref)
        self._ref = ref
        self._t0 = time.perf_counter()
        return wall, pace
