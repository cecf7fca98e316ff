"""Statistics helpers used by the evaluation harness.

The paper reports averages, minimum/maximum envelopes (Fig 12), percentiles
of path lengths (Section 4.1) and Jain's fairness index (Fig 13).  The
helpers here implement exactly those summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of a non-empty iterable."""
    items = list(values)
    if not items:
        raise ValueError("mean() of empty sequence")
    return sum(items) / len(items)


def percentile(values: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile (0-100) via linear interpolation."""
    if not values:
        raise ValueError("percentile() of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be within [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def jains_fairness_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2).

    Equals 1.0 when all rates are equal and approaches 1/n when a single
    flow captures all of the bandwidth.  The paper reports ~0.99 for both
    Jellyfish and the fat-tree (Fig 13).  Rounding can push the ratio a few
    ulps past 1.0 for equal rates (13 x 0.32499999999999996 gives
    1.0000000000000007), so the result is clamped to the index's maximum.
    """
    if not rates:
        raise ValueError("jains_fairness_index() of empty sequence")
    if any(r < 0 for r in rates):
        raise ValueError("rates must be non-negative")
    total = sum(rates)
    if total == 0:
        return 1.0
    square_sum = sum(r * r for r in rates)
    if square_sum == 0:
        # r*r underflows to 0.0 for denormal rates even though their sum is
        # positive; rescaling by the peak keeps the index well defined.
        peak = max(rates)
        scaled = [r / peak for r in rates]
        total = sum(scaled)
        square_sum = sum(r * r for r in scaled)
    return min(1.0, (total * total) / (len(rates) * square_sum))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary used when reporting experiment series."""

    mean: float
    minimum: float
    maximum: float
    p50: float
    p99: float
    count: int

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p99": self.p99,
            "count": self.count,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Build a :class:`Summary` for a non-empty sequence of values."""
    if not values:
        raise ValueError("summarize() of empty sequence")
    return Summary(
        mean=mean(values),
        minimum=min(values),
        maximum=max(values),
        p50=percentile(values, 50),
        p99=percentile(values, 99),
        count=len(values),
    )
