"""Exporters for traces and benchmark artifacts.

Three consumers, three formats (schemas documented in
``docs/observability.md``):

* **JSON trace document** (:func:`trace_document` / :func:`write_json`) —
  the whole span forest nested as a tree plus the metrics snapshot; what
  ``python -m repro trace ... --json PATH`` writes.
* **JSONL span log** (:func:`write_jsonl`) — one flat JSON object per span
  with ``id`` / ``parent`` links, convenient for grep/pandas-style
  processing of large traces.
* **Benchmark artifact** (:func:`write_bench_artifact`) — the
  ``BENCH_E*.json`` files persisted by ``benchmarks/conftest.py``: recorded
  experiment series rows, the lint-cleanliness header, and an optional
  trace profile.

Attribute values are rendered with ``default=str`` so exact ``Fraction``
weights and tuple node labels survive as readable strings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from .metrics import percentile_from_buckets

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "span_to_dict",
    "trace_document",
    "merge_metrics_snapshots",
    "merge_trace_documents",
    "counter_total",
    "write_json",
    "write_jsonl",
    "render_tree",
    "profile_rows",
    "render_profile",
    "count_spans",
    "write_bench_artifact",
]

TRACE_SCHEMA_VERSION = 1


def span_to_dict(span) -> dict:
    """One span (and recursively its children) as a JSON-able dict."""
    return {
        "name": span.name,
        "start": span.start,
        "duration": span.duration,
        "self_time": span.self_time,
        "attrs": dict(span.attrs),
        "counters": dict(span.counters),
        "children": [span_to_dict(c) for c in span.children],
    }


def trace_document(tracer, command: Optional[str] = None) -> dict:
    """The full JSON trace document for a finished tracer."""
    return {
        "version": TRACE_SCHEMA_VERSION,
        "command": command,
        "spans": [span_to_dict(s) for s in tracer.roots],
        "metrics": tracer.metrics.snapshot(),
    }


def _metric_key(row: dict) -> Tuple:
    return (row["name"], tuple(sorted(row.get("labels", {}).items())))


def merge_metrics_snapshots(snapshots) -> dict:
    """Combine several ``MetricsRegistry.snapshot()`` payloads into one.

    Counters and histogram counts/totals add; histogram min/max widen and
    log2 bucket counts add, from which the merged p50/p95 are recomputed
    (bucket addition is associative, so merge order does not matter);
    gauges keep the last written value in snapshot order.  Rows keep the
    snapshot sort order (name, then labels).
    """
    counters: Dict[Tuple, dict] = {}
    gauges: Dict[Tuple, dict] = {}
    histograms: Dict[Tuple, dict] = {}
    for snapshot in snapshots:
        for row in snapshot.get("counters", []):
            merged = counters.setdefault(_metric_key(row), {**row, "value": 0})
            merged["value"] += row["value"]
        for row in snapshot.get("gauges", []):
            gauges[_metric_key(row)] = dict(row)
        for row in snapshot.get("histograms", []):
            merged = histograms.get(_metric_key(row))
            if merged is None:
                merged = dict(row)
                merged["buckets"] = dict(row.get("buckets", {}))
                histograms[_metric_key(row)] = merged
                continue
            merged["count"] += row["count"]
            merged["total"] += row["total"]
            for bound, pick in (("min", min), ("max", max)):
                values = [v for v in (merged[bound], row[bound]) if v is not None]
                merged[bound] = pick(values) if values else None
            for key, bucket_count in row.get("buckets", {}).items():
                merged["buckets"][key] = merged["buckets"].get(key, 0) + bucket_count
            merged["mean"] = merged["total"] / merged["count"] if merged["count"] else 0
    for merged in histograms.values():
        for q, field in ((0.50, "p50"), (0.95, "p95")):
            merged[field] = percentile_from_buckets(
                merged.get("buckets", {}),
                merged["count"],
                q,
                lo=merged["min"],
                hi=merged["max"],
            )
    return {
        "counters": [counters[k] for k in sorted(counters)],
        "gauges": [gauges[k] for k in sorted(gauges)],
        "histograms": [histograms[k] for k in sorted(histograms)],
    }


def merge_trace_documents(
    documents, command: Optional[str] = None, extra: Optional[dict] = None
) -> dict:
    """Merge several trace documents (one per worker) into one.

    Span forests are concatenated in document order with each root annotated
    by its source document index (``merged_from`` attribute); metrics are
    combined with :func:`merge_metrics_snapshots`.  ``extra`` entries (e.g.
    cache statistics) are copied onto the top level of the merged document.
    """
    documents = list(documents)
    spans: List[dict] = []
    for index, doc in enumerate(documents):
        for root in doc.get("spans", []):
            merged_root = dict(root)
            merged_root["attrs"] = dict(root.get("attrs", {}), merged_from=index)
            spans.append(merged_root)
    merged = {
        "version": TRACE_SCHEMA_VERSION,
        "command": command,
        "merged_from": len(documents),
        "spans": spans,
        "metrics": merge_metrics_snapshots(
            doc.get("metrics", {}) for doc in documents
        ),
    }
    if extra:
        merged.update(extra)
    return merged


def counter_total(document: dict, name: str) -> int:
    """Total of counter ``name`` over a trace document's metric rows."""
    return sum(
        row.get("value", 0)
        for row in document.get("metrics", {}).get("counters", [])
        if row.get("name") == name
    )


def write_json(tracer, path, command: Optional[str] = None) -> Path:
    """Write the JSON trace document to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(trace_document(tracer, command=command), indent=2, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def _flat_spans(tracer) -> Iterator[Tuple[int, Optional[int], object]]:
    """Depth-first ``(id, parent_id, span)`` triples; ids are DFS order."""
    next_id = 0
    stack = [(None, s) for s in reversed(tracer.roots)]
    while stack:
        parent_id, span = stack.pop()
        span_id = next_id
        next_id += 1
        yield span_id, parent_id, span
        stack.extend((span_id, c) for c in reversed(span.children))


def write_jsonl(tracer, path) -> Path:
    """Write one JSON object per span (``id``/``parent`` linked) to ``path``."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for span_id, parent_id, span in _flat_spans(tracer):
            fh.write(
                json.dumps(
                    {
                        "id": span_id,
                        "parent": parent_id,
                        "name": span.name,
                        "start": span.start,
                        "duration": span.duration,
                        "attrs": dict(span.attrs),
                        "counters": dict(span.counters),
                    },
                    default=str,
                )
                + "\n"
            )
    return path


def _format_attrs(span) -> str:
    parts = [f"{k}={v}" for k, v in span.attrs.items()]
    parts += [f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in span.counters.items()]
    return " ".join(str(p) for p in parts)


def render_tree(tracer, max_depth: Optional[int] = None) -> str:
    """Indented text rendering of the span forest (durations in ms)."""
    lines: List[str] = []

    def visit(span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        attrs = _format_attrs(span)
        suffix = f"  [{attrs}]" if attrs else ""
        hidden = ""
        if max_depth is not None and depth == max_depth and span.children:
            hidden = f"  (+{sum(1 for _ in _descendants(span))} nested spans)"
        lines.append(f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f}ms{suffix}{hidden}")
        if max_depth is None or depth < max_depth:
            for child in span.children:
                visit(child, depth + 1)

    for root in tracer.roots:
        visit(root, 0)
    return "\n".join(lines)


def _descendants(span) -> Iterator[object]:
    for child in span.children:
        yield child
        yield from _descendants(child)


def profile_rows(tracer) -> List[dict]:
    """Aggregate spans by name: calls, total/self/mean time, hottest first.

    "Hottest" orders by *self* time — time spent in a span excluding its
    children — so a parent that merely contains expensive work does not
    crowd out the work itself.
    """
    agg: Dict[str, dict] = {}
    for span in tracer.iter_spans():
        row = agg.setdefault(
            span.name, {"name": span.name, "calls": 0, "total": 0.0, "self": 0.0}
        )
        row["calls"] += 1
        row["total"] += span.duration
        row["self"] += span.self_time
    rows = sorted(agg.values(), key=lambda r: (-r["self"], -r["total"], r["name"]))
    for row in rows:
        row["mean"] = row["total"] / row["calls"] if row["calls"] else 0.0
    return rows


def render_profile(rows: List[dict], top: int = 10) -> str:
    """Text table of the top-``top`` hottest span names."""
    lines = [f"{'span':<28} {'calls':>7} {'self ms':>10} {'total ms':>10} {'mean ms':>10}"]
    for row in rows[:top]:
        lines.append(
            f"{row['name']:<28} {row['calls']:>7} {row['self'] * 1e3:>10.3f} "
            f"{row['total'] * 1e3:>10.3f} {row['mean'] * 1e3:>10.3f}"
        )
    return "\n".join(lines)


def count_spans(tracer, name: str) -> int:
    """How many recorded spans carry ``name``."""
    return sum(1 for s in tracer.iter_spans() if s.name == name)


def write_bench_artifact(
    path,
    experiment_id: str,
    series: List[dict],
    lint: Optional[dict] = None,
    profile: Optional[List[dict]] = None,
) -> Path:
    """Persist one experiment's recorded series as a ``BENCH_E*.json`` file.

    ``series`` is a list of ``{"experiment": <full name>, "rows": [...]}``
    groups (several experiment tables can share an id like ``E1``); ``lint``
    is the lint-cleanliness header of the run; ``profile`` an optional
    span-name profile when the bench session ran under a tracer.

    Keys are sorted so re-running an unchanged benchmark reproduces the
    committed artifact byte for byte.
    """
    path = Path(path)
    document = {
        "version": TRACE_SCHEMA_VERSION,
        "experiment_id": experiment_id,
        "series": series,
        "lint": lint,
        "profile": profile,
    }
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return path
