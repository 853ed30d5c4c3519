"""Summary statistics of the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Candidate tail percentiles in tenths of a percent, highest first.
_TAIL_TENTHS = (999, 990, 950, 900, 500)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(n: int) -> Optional[float]:
    """Highest percentile with at least ``MIN_BEYOND`` of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it.  Integer arithmetic keeps the boundary exact (100 samples
    qualify p90, 10000 qualify p99.9).
    """
    for tenths in _TAIL_TENTHS:
        if n * (1000 - tenths) >= MIN_BEYOND * 1000:
            return tenths / 10.0
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, sample count and the qualifying tail percentile (if any)."""
    values = list(values)
    tail = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "n": len(values),
        "tail_p": tail,
        "tail": None if tail is None else percentile(values, tail),
    }


def describe(values: Sequence[float], unit: str) -> str:
    """One-line rendering of :func:`summarize` for the human-readable report."""
    s = summarize(values)
    text = f"median {s['median']:.6g} {unit}"
    if s["tail_p"] is None or s["tail_p"] == 50.0:
        return text + f" (n={s['n']}; no tail percentile has {MIN_BEYOND} samples beyond it)"
    return text + f", p{s['tail_p']:g} {s['tail']:.6g} {unit} (n={s['n']})"


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
