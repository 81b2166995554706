"""Span-based tracing with a zero-cost no-op implementation.

A :class:`Tracer` records a forest of :class:`Span` objects — named, timed
regions of work with free-form attributes and additive counters.  Spans are
context managers::

    tracer = Tracer()
    with tracer.span("adversary.step", index=3) as sp:
        sp.add("isomorphism_checks")
        sp.set(nodes=graph.num_nodes())

Instrumented library code never requires a tracer: every ``tracer=``
parameter defaults to the ambient tracer (:func:`current_tracer`), which is
the shared no-op :data:`NULL_TRACER` unless a caller installed a real one
with :func:`use_tracer`.  The no-op tracer returns one preallocated span
object that ignores everything, so the disabled hot path costs a dict-free
method call and a ``with`` block — nothing measurable.  Guarding an
expensive observation with ``if tracer.enabled:`` does not keep it out of a
sweep, whose shards run under an enabled tracer: record only what
something reads.

Determinism contract
--------------------
This module is the **single sanctioned home of wall-clock reads** in the
repository.  The model's outputs remain a function of the input alone:
spans observe the computation (durations, counts) but nothing downstream of
a clock value ever flows back into an algorithm.  The ``determinism`` lint
rule exempts exactly this module via ``LintConfig.clock_modules`` (see
``docs/static_analysis.md``); clock use anywhere else is still flagged.
Tests that need reproducible traces inject a fake ``clock`` callable.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from .metrics import NULL_METRICS, MetricsRegistry

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "use_tracer",
]


class Span:
    """One timed, attributed region of work; spans nest into a tree."""

    __slots__ = ("name", "attrs", "counters", "children", "start", "end", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self.start: Optional[float] = None
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Wall time between enter and exit (0.0 while still open)."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not attributed to any child span."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def set(self, **attrs) -> "Span":
        """Attach or overwrite attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def add(self, counter: str, n: float = 1) -> "Span":
        """Bump an additive per-span counter."""
        self.counters[counter] = self.counters.get(counter, 0) + n
        return self

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._close(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, attrs={self.attrs!r}, children={len(self.children)})"


class Tracer:
    """Records spans into a forest; one instance per traced activity.

    Parameters
    ----------
    clock:
        Callable returning a monotonically non-decreasing float.  Defaults
        to ``time.perf_counter``; tests inject a deterministic fake.
    """

    enabled = True

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock if clock is not None else time.perf_counter
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attrs) -> Span:
        """A new span; activate it with ``with``."""
        return Span(self, name, attrs)

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        span.start = self._clock()

    def _close(self, span: Span) -> None:
        span.end = self._clock()
        # tolerate exits out of order (a child leaked past its parent):
        # unwind to — and including — the span being closed
        while self._stack:
            if self._stack.pop() is span:
                break

    def iter_spans(self) -> Iterator[Span]:
        """Every recorded span, depth-first in recording order."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> List[Span]:
        """All spans with the given name."""
        return [s for s in self.iter_spans() if s.name == name]

    def graft(self, other: "Tracer") -> None:
        """Adopt what a private tracer recorded: its spans and its counters.

        Used when work ran against a private tracer (e.g. on a watchdogged
        worker thread, whose spans must not race this tracer's stack): its
        completed span trees appear in this trace as children of whatever
        span is currently open — or as roots if none is — and its counters
        are added to this tracer's.
        """
        parent = self._stack[-1].children if self._stack else self.roots
        parent.extend(other.roots)
        self.metrics.add_counters(other.metrics)


class _NullSpan:
    """The do-nothing span: a reusable context manager with Span's API."""

    __slots__ = ()

    name = "null"
    attrs: Dict[str, Any] = {}
    counters: Dict[str, float] = {}
    children: List[Span] = []
    start = None
    end = None
    duration = 0.0
    self_time = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def add(self, counter: str, n: float = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: same interface as :class:`Tracer`, records nothing."""

    enabled = False
    roots: List[Span] = []
    metrics = NULL_METRICS

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def iter_spans(self) -> Iterator[Span]:
        return iter(())

    def find(self, name: str) -> List[Span]:
        return []

    def graft(self, other) -> None:
        return None


NULL_TRACER = NullTracer()

#: the ambient tracer instrumented code falls back to; NULL_TRACER unless a
#: caller installed one with :func:`use_tracer`
_CURRENT = NULL_TRACER


def current_tracer():
    """The ambient tracer (:data:`NULL_TRACER` when tracing is off)."""
    return _CURRENT


class use_tracer:
    """Install ``tracer`` as the ambient tracer for a ``with`` block.

    ::

        tracer = Tracer()
        with use_tracer(tracer):
            run_adversary(alg, delta=6)   # all layers pick the tracer up
    """

    def __init__(self, tracer):
        self._tracer = tracer
        self._previous = None

    def __enter__(self):
        global _CURRENT
        self._previous = _CURRENT
        _CURRENT = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _CURRENT
        _CURRENT = self._previous
        return False
