"""The benchmark's own arithmetic: the tail rule, floor ratios, spreads.

Everything here is pure Python so the tests in ``test_perfbench.py``
can pin the definitions without running a workload.
"""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A tail percentile is only reported with at least this many samples
#: beyond it, so one outlier cannot set it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    above it.

    Returns ``(value, percentile, count)``.  With ``n`` samples sorted
    ascending, the one at 1-based rank ``n - TAIL_BEYOND`` has exactly
    ``TAIL_BEYOND`` samples after it; under the nearest-rank definition
    it is the ``100 * (n - TAIL_BEYOND) / n`` percentile.  Fewer than
    ``TAIL_BEYOND + 1`` samples support no such percentile and raise.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave fewer than {TAIL_BEYOND} "
                         f"beyond any percentile")
    ordered = sorted(values)
    return (float(ordered[n - TAIL_BEYOND - 1]),
            100.0 * (n - TAIL_BEYOND) / n, n)


def floor_ratio(latency_p50_s: float,
                floor_samples_s: Sequence[float]) -> float:
    """Median call latency over the median time of the same
    flop-dominant BLAS/LAPACK calls run bare; 1.0 means no overhead."""
    floor = statistics.median(floor_samples_s)
    if floor <= 0:
        raise ValueError(f"floor time must be positive, got {floor}")
    return latency_p50_s / floor


def quartile_spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` with :func:`statistics.quantiles`' default
    (exclusive) method: the run-to-run spread the bounds are set from."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def covered(start: float, end: float,
            intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of
    ``intervals`` (each clipped to the window first)."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total
