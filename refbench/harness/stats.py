"""Order statistics for the benchmark's reports.

Every timing the benchmark prints carries its sample count.  A percentile
counts as reported only when at least ``BEYOND`` samples lie beyond it, so
a p90 needs 100 samples and a p50 needs 20; below that the report says so
next to the number, which one outlier may decide.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

#: samples that must lie beyond a reported percentile
BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of ``values``.

    The same rule as ``statistics.quantiles(..., method="inclusive")``:
    position ``q * (n - 1)`` in the sorted sample.
    """
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-quantile."""
    return n - math.ceil(q * n) if n else 0


def min_samples(q: float, need: int = BEYOND) -> int:
    """Smallest sample count whose ``q``-quantile has ``need`` samples beyond."""
    n = 1
    while beyond(n, q) < need:
        n += 1
    return n


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of a sample, with its size."""

    n: int
    median: float
    q1: float
    q3: float

    @property
    def spread(self) -> float:
        """Interquartile distance as a share of the median."""
        return (self.q3 - self.q1) / self.median if self.median else math.inf


def summarize(values: Iterable[float]) -> Summary:
    """Median and quartiles; quartiles follow ``statistics.quantiles(values, n=4)``.

    With one sample the quartiles collapse onto it.
    """
    sample: List[float] = [float(v) for v in values]
    if not sample:
        raise ValueError("summary of an empty sample")
    if len(sample) == 1:
        return Summary(1, sample[0], sample[0], sample[0])
    q1, median, q3 = statistics.quantiles(sample, n=4)
    return Summary(len(sample), statistics.median(sample), q1, q3)


def shift(before: Sequence[float], after: Sequence[float]) -> Optional[float]:
    """Relative change of the median from ``before`` to ``after``."""
    base = statistics.median(before)
    return (statistics.median(after) - base) / base if base else None
