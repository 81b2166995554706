"""Metrics registry: counters, gauges and histograms with labels.

A metric is identified by its name plus a (sorted) label set, e.g.
``registry.counter("adversary.checked_runs", algorithm="greedy", delta=6)``.
Repeated calls with the same name and labels return the same instrument, so
instrumented code can re-fetch instead of threading instrument handles
around.  :meth:`MetricsRegistry.snapshot` renders everything as plain
JSON-able dictionaries for the exporters.

The registry is deterministic given a deterministic workload: it never
reads clocks or entropy; histograms store exact sums of whatever numbers
are observed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "bucket_key",
    "percentile_from_buckets",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ValueError("counters only go up; use a gauge for deltas")
        self.value += n


class Gauge:
    """A value that can move both ways (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


_UNDERFLOW_BUCKET = "-inf"
_BUCKET_EXPONENT_FLOOR = -1074  # below the subnormal range: everything positive lands above
_BUCKET_EXPONENT_CEIL = 1024


def bucket_key(value) -> str:
    """The log2 bucket a value falls into, as a stable string key.

    Bucket ``"e"`` covers ``(2**(e-1), 2**e]``; non-positive values share the
    ``"-inf"`` underflow bucket.  String keys survive a JSON round trip
    unchanged, which is what makes bucket counts mergeable across worker
    snapshots.
    """
    if value <= 0:
        return _UNDERFLOW_BUCKET
    exponent = math.ceil(math.log2(value))
    return str(max(_BUCKET_EXPONENT_FLOOR, min(_BUCKET_EXPONENT_CEIL, exponent)))


def _bucket_sort_value(key: str) -> float:
    return float("-inf") if key == _UNDERFLOW_BUCKET else int(key)


def percentile_from_buckets(
    buckets: Dict[str, int],
    count: int,
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> Optional[float]:
    """Deterministic percentile estimate from log2 bucket counts.

    Walks buckets in ascending order until the cumulative count reaches
    ``ceil(q * count)`` and returns that bucket's upper edge, clamped into
    ``[lo, hi]`` (the exact observed min/max) so a single-valued histogram
    reports the value itself.  Returns ``None`` when there is nothing to
    summarise.  Because merged bucket counts are plain sums, the estimate is
    associative across snapshot merges.
    """
    if not count or not buckets:
        return None
    rank = max(1, math.ceil(q * count))
    cumulative = 0
    edge = None
    for key in sorted(buckets, key=_bucket_sort_value):
        cumulative += buckets[key]
        if cumulative >= rank:
            edge = 0.0 if key == _UNDERFLOW_BUCKET else 2.0 ** int(key)
            break
    if edge is None:  # bucket counts short of `count`: fall back to the top edge
        edge = hi if hi is not None else 0.0
    if lo is not None:
        edge = max(edge, lo)
    if hi is not None:
        edge = min(edge, hi)
    return edge


class Histogram:
    """Streaming summary of observed values: count / sum / min / max plus
    log2 bucket counts, from which p50/p95 are derived deterministically."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets: Dict[str, int] = {}

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        key = bucket_key(value)
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0

    def percentile(self, q: float) -> Optional[float]:
        return percentile_from_buckets(
            self.buckets, self.count, q, lo=self.min, hi=self.max
        )

    @property
    def p50(self) -> Optional[float]:
        return self.percentile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.percentile(0.95)


class MetricsRegistry:
    """Get-or-create store of instruments keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        return self._counters.setdefault((name, _label_key(labels)), Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauges.setdefault((name, _label_key(labels)), Gauge())

    def histogram(self, name: str, **labels) -> Histogram:
        return self._histograms.setdefault((name, _label_key(labels)), Histogram())

    def add_counters(self, other: "MetricsRegistry") -> None:
        """Add every counter of ``other`` into this registry's."""
        for key, counter in other._counters.items():
            self._counters.setdefault(key, Counter()).inc(counter.value)

    def snapshot(self) -> Dict[str, List[dict]]:
        """All instruments as JSON-able rows, sorted by (name, labels)."""

        def rows(store, render):
            return [
                {"name": name, "labels": dict(labels), **render(metric)}
                for (name, labels), metric in sorted(store.items())
            ]

        return {
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "gauges": rows(self._gauges, lambda g: {"value": g.value}),
            "histograms": rows(
                self._histograms,
                lambda h: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    "p50": h.p50,
                    "p95": h.p95,
                    "buckets": {
                        k: h.buckets[k]
                        for k in sorted(h.buckets, key=_bucket_sort_value)
                    },
                },
            ),
        }


class _NullInstrument:
    """One object that absorbs every instrument method, costlessly."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetricsRegistry:
    """Registry façade returned by the no-op tracer: records nothing."""

    __slots__ = ()

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, List[dict]]:
        return {"counters": [], "gauges": [], "histograms": []}


NULL_METRICS = _NullMetricsRegistry()
