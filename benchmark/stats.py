"""Summary statistics of one run."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond).  With ``beyond`` samples or
    fewer, no percentile qualifies, and the minimum is returned with the
    count it does have beyond it.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    idx = max(len(xs) - beyond - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx
