"""Spans recorded from outside the program, around calls into its layers.

A :class:`Recorder` hands out wrappers for the program's public functions.
Each call through a wrapper records one :class:`Span` — name, start, end,
parent span and run id — in memory; nothing is written until the run ends
(:meth:`Recorder.dump`).  :func:`install` patches a wrapper in every place
the program looks the function up: the module attribute of every
``repro`` module that imported it by name, or the class attribute for a
method.

Self time is derived afterwards (:func:`self_times`): a span's duration
minus the part of it covered by its wrapped children.  A re-entrant call
of the same wrapped function is simply a child of itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-aware in-memory span store.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost wrapped call still open on the same thread.  A root span
    opens a new run id, which its descendants share (see :meth:`wrap`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._runs = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        run_of: Optional[Callable] = None,
        run_of_result: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper around ``fn`` that records one span named ``name`` per call.

        For a root span, ``run_of(*args, **kwargs)`` names the run up front
        (a service job passed in), and ``run_of_result(result)`` renames it
        once the call returns (a job a submission created).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            sid = next(recorder._ids)
            if stack:
                parent, run = stack[-1]
            else:
                parent = None
                run = str(run_of(*args, **kwargs)) if run_of else f"run-{next(recorder._runs)}"
            stack.append((sid, run))
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(stack, Span(sid, name, start, recorder.clock(), parent, run))
                raise
            end = recorder.clock()
            if parent is None and run_of_result is not None:
                run = str(run_of_result(result))
            recorder._close(stack, Span(sid, name, start, end, parent, run))
            return result

        return wrapper

    def _close(self, stack: List[Tuple[int, str]], span: Span) -> None:
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def dump(self, path) -> None:
        """Write every recorded span to ``path`` as JSON."""
        with self._lock:
            payload = [asdict(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load(path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**record) for record in json.load(fh)]


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its wrapped children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.sid: span.duration - _covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def by_name(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Name -> ``{"calls": n, "self_s": total self time}``."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[span.sid]
    return table


def add_table(table: Dict[str, Dict[str, float]], other: Mapping[str, Mapping[str, float]]) -> None:
    """Add ``other``'s calls and self time into ``table``, in place.

    For spans recorded in another process: span ids and parents are only
    unique within one recorder, so each process is tabled on its own.
    """
    for name, row in other.items():
        into = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        into["calls"] += row["calls"]
        into["self_s"] += row["self_s"]


def unattributed(spans: Sequence[Span], lo: float, hi: float) -> float:
    """Time in ``[lo, hi]`` outside every root span."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (hi - lo) - _covered(roots, lo, hi)


def _resolve(module: str, qualname: str):
    """``(owner, attribute, function)`` for ``module:qualname``, or ``None``."""
    mod = sys.modules.get(module)
    if mod is None:
        try:
            __import__(module)
        except ImportError:
            return None
        mod = sys.modules[module]
    owner = mod
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def install(
    recorder: Recorder,
    targets: Sequence[Tuple[str, str, str]],
    run_of: Optional[Dict[str, Callable]] = None,
    run_of_result: Optional[Dict[str, Callable]] = None,
) -> List[str]:
    """Patch a wrapper in wherever each target is looked up.

    ``targets`` are ``(span name, module, qualname)``.  A method
    (``Class.name``) is replaced on its class.  A module function is
    replaced on every loaded ``repro`` module whose attribute is the very
    same function object, which covers ``from x import f`` callers.
    ``run_of``/``run_of_result`` map a qualname to the run-naming hooks of
    :meth:`Recorder.wrap`.  Returns the targets that are missing from this
    version of the program; their spans simply never occur.
    """
    run_of = run_of or {}
    run_of_result = run_of_result or {}
    missing = []
    for name, module, qualname in targets:
        resolved = _resolve(module, qualname)
        if resolved is None:
            missing.append(f"{module}:{qualname}")
            continue
        owner, attr, fn = resolved
        wrapper = recorder.wrap(name, fn, run_of.get(qualname), run_of_result.get(qualname))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
    return missing
