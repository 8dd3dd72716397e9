"""Small statistics the benchmark reports: percentiles and failure ratios.

Kept apart from the workloads so the arithmetic has its own tests
(``perfbench/test_perfbench.py``).
"""

from __future__ import annotations

import math
from typing import Sequence


#: The tail percentile of the end-to-end job latency (``job_p95_ms``).
#: On a shared 2-CPU box the open-loop p99 rests on a handful of
#: stall-hit jobs and moved by 0.37-0.45 (IQR/median) across ten runs,
#: wider than any bound the benchmark may set; p95 has about 20 samples
#: beyond it in every window.
TAIL = 95


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: always one of the measured samples."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p`` percentile.

    A tail percentile is trustworthy only with enough samples beyond it
    (at least ten); the report prints this count next to every tail.
    """
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


def median(values: Sequence[float]) -> float:
    """Median by interpolation between the two middle samples."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def error_ratio(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (0 when all succeeded)."""
    if attempted < 1:
        raise ValueError("error_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted
