"""Summary statistics shared by the runner and the baseline script."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie above a reported percentile


def median(values):
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile (0 < q < 100) of the samples.

    Refuses (ValueError) unless at least MIN_BEYOND samples lie beyond the
    percentile, so a tail figure always rests on a stated minimum of data.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples leaves {beyond} beyond it; "
                         f"at least {MIN_BEYOND} are required")
    return ordered[rank - 1]


def tail(values):
    """(value, q) of the highest of p90, p75 and the median that leaves
    MIN_BEYOND samples beyond it; the median when none does."""
    for q in (90, 75):
        try:
            return percentile(values, q), q
        except ValueError:
            pass
    return median(values), 50


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
