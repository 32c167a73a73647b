"""Order statistics for timings."""

from __future__ import annotations

BEYOND = 10


def tail(samples) -> tuple[float, float] | None:
    """Highest percentile with at least BEYOND samples above it, as
    (percentile, value); None when it would not lie above the median.

    With n sorted samples that is the (n - BEYOND)-th smallest, the
    100 (n - BEYOND) / n percentile: p90 of 100 samples, p50 of 20.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * BEYOND:
        return None
    return 100.0 * (n - BEYOND) / n, xs[n - BEYOND - 1]

