"""Observability for the reproduction: tracing, metrics, and exporters.

The package has four small modules:

* :mod:`repro.obs.tracer` — span-based tracing.  A :class:`Tracer` records
  nested, wall-timed spans with attributes and counters; the shared
  :data:`NULL_TRACER` is a no-op implementation of the same interface so
  instrumented hot paths cost (almost) nothing when tracing is off.
* :mod:`repro.obs.metrics` — a metrics registry of counters, gauges and
  histograms keyed by experiment-relevant labels (model, delta, round,
  adversary step).
* :mod:`repro.obs.export` — JSON / JSONL trace exporters, a span-tree text
  renderer, a per-span-name profile aggregator, and the benchmark-artifact
  writer (``BENCH_E*.json``) used by ``benchmarks/conftest.py``.
* :mod:`repro.obs.progress` — the :class:`ProgressEmitter` heartbeat hook
  the sweep engine drives for ``repro sweep --progress`` (JSONL events plus
  a single-line TTY status).

The determinism contract of the repository is preserved: wall-clock reads
are confined to the sanctioned modules that ``LintConfig.clock_modules``
names (:mod:`repro.lint`): :mod:`repro.obs.tracer`,
:mod:`repro.obs.progress`, :mod:`repro.engine.executors.shard`,
:mod:`repro.engine.faults` and :mod:`repro.service.jobs`.  Nothing an
algorithm computes may depend on a trace — spans observe the computation,
they never feed back into it.

See ``docs/observability.md`` for the full API tour, the metric-name and
span-name catalogues, and the JSON schema.
"""

from .export import (
    TRACE_SCHEMA_VERSION,
    count_spans,
    merge_metrics_snapshots,
    merge_trace_documents,
    profile_rows,
    render_profile,
    render_tree,
    span_to_dict,
    trace_document,
    write_bench_artifact,
    write_json,
    write_jsonl,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import NULL_PROGRESS, ProgressEmitter
from .tracer import NULL_TRACER, NullTracer, Span, Tracer, current_tracer, use_tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROGRESS",
    "NULL_TRACER",
    "NullTracer",
    "ProgressEmitter",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "TRACE_SCHEMA_VERSION",
    "count_spans",
    "merge_metrics_snapshots",
    "merge_trace_documents",
    "profile_rows",
    "render_profile",
    "render_tree",
    "span_to_dict",
    "trace_document",
    "write_bench_artifact",
    "write_json",
    "write_jsonl",
]
