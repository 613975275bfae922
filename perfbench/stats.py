"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

TAIL_SAMPLES = 10  # a reported tail percentile keeps at least this many samples beyond it


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile p with at least TAIL_SAMPLES of n samples beyond it.

    Samples beyond p number n * (1 - p/100), so p = floor(100 * (1 - 10/n)).
    Returns None below 2 * TAIL_SAMPLES samples, where not even the median
    would qualify.
    """
    if n < 2 * TAIL_SAMPLES:
        return None
    return math.floor(100 * (n - TAIL_SAMPLES) / n)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

