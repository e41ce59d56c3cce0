"""Order statistics for the benchmark's reports.

Percentiles use the nearest-rank rule: the p-th percentile of ``n``
sorted samples is the sample at rank ``ceil(p/100 * n)``. A tail
percentile is only trusted when at least :data:`MIN_BEYOND` samples
lie beyond it; :func:`tail_report` flags it otherwise.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, ``0 < pct <= 100``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], not {pct}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples rank above the ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_report(values: list[float], pct: float) -> dict:
    """The percentile with its sample count and the tail-rule verdict."""
    count = len(values)
    return {
        "value": percentile(values, pct),
        "samples": count,
        "beyond": beyond(count, pct),
        "trusted": beyond(count, pct) >= MIN_BEYOND,
    }


def _rank(count: int, pct: float) -> int:
    return max(1, math.ceil(pct * count / 100))
