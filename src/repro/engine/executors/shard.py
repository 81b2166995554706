"""The backend-independent shard runtime every executor drives.

A *shard* is the unit of work a :class:`~repro.engine.executors.base.
SweepExecutor` ships somewhere: a JSON-ready payload dict naming the cells
to run, the result store to use, and the fault/watchdog/retry
discipline to apply.  :func:`run_shard` is the one function that executes
it — in this process (inline backend) or in a spawned pool worker
(process backend).  Because both backends funnel through the same
runtime, the byte-identity and fault-tolerance invariants are properties
of the *payload*, not of either backend.

The runtime installs the ambient tracer/fault-injector/cache hooks for the
duration of a shard.  Those hooks are deliberately plain module globals
(:mod:`repro.obs.tracer`, :mod:`repro.engine.faults`), so two shards must
never execute concurrently *inside one process*: :data:`_AMBIENT_LOCK`
serialises them.  Process workers are unaffected (one shard per process);
the lock is what keeps in-process shards — inline rounds, concurrent
service jobs — safe without contextvar plumbing.

``time.sleep`` here implements only the deterministic retry backoff and
the watchdog join timeout and never feeds any model output; the module is
a sanctioned clock user (``LintConfig.clock_modules``) for exactly those
lines, and a sanctioned worker module for the watchdog thread.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Tuple

from ...graphs.isomorphism import use_canonical_cache
from ...obs.export import trace_document
from ...obs.tracer import Tracer, use_tracer
from ..cache import CanonicalFormCache
from ..faults import FaultInjector, FaultPlan, InjectedWorkerError, use_faults
from ..grid import Cell, run_cell
from ..store import ResultStore

__all__ = [
    "CellExecutionError",
    "CellTimeout",
    "run_shard",
    "shard_cells",
    "shard_payloads",
]

#: deterministic retry backoff: attempt k sleeps k * _BACKOFF_BASE seconds
_BACKOFF_BASE = 0.02

#: serialises in-process shard execution: the ambient tracer/fault/cache
#: hooks are process-global, so only one shard may own them at a time
_AMBIENT_LOCK = threading.Lock()


class CellExecutionError(RuntimeError):
    """A cell failed after every retry; names the failing grid point."""

    def __init__(self, key: str, algorithm: str = "?", delta: int = -1,
                 chain: str = "?", seed: int = -1, cause: str = ""):
        self.key = key
        self.algorithm = algorithm
        self.delta = delta
        self.chain = chain
        self.seed = seed
        self.cause = cause
        super().__init__(
            f"cell {key} (algorithm={algorithm}, delta={delta}, chain={chain}, "
            f"seed={seed}) failed: {cause}"
        )

    def __reduce__(self):  # exceptions cross the process boundary pickled
        return (type(self), (self.key, self.algorithm, self.delta, self.chain, self.seed, self.cause))

    @classmethod
    def for_cell(cls, cell: Cell, cause: BaseException) -> "CellExecutionError":
        return cls(
            cell.key, cell.algorithm, cell.delta, cell.chain, cell.seed,
            f"{type(cause).__name__}: {cause}",
        )

    def as_record(self) -> dict:
        """The JSON-ready account recorded in ``summary.json``'s ``failed``."""
        return {
            "key": self.key,
            "algorithm": self.algorithm,
            "delta": self.delta,
            "chain": self.chain,
            "seed": self.seed,
            "error": self.cause,
        }


class CellTimeout(RuntimeError):
    """The per-cell watchdog fired before the cell finished."""

    def __init__(self, key: str, timeout: float):
        self.key = key
        self.timeout = timeout
        super().__init__(f"cell {key} exceeded its {timeout:g}s watchdog")

    def __reduce__(self):
        return (type(self), (self.key, self.timeout))


def shard_cells(cells: List[Cell], shards: int) -> List[List[Cell]]:
    """Deal ``cells`` round-robin into at most ``shards`` shards by placement unit.

    A placement unit is every seed of one ``(algorithm, delta, chain)``
    family: the construction ignores the seed, so the run memo
    (:data:`repro.graphs.memo.RUNS`, see :func:`~repro.engine.grid.run_cell`)
    answers every replica after the first in one lookup, but only in the
    process that ran the first.

    Units are dealt in sorted cell order, unit ``i`` to shard ``i mod n``
    with ``n = min(shards, units)``, so no shard is empty and a grid of one
    seed per family splits exactly as a round-robin over its cells.  Each
    shard lists its cells sorted, and one shard is ``sorted(cells)``.
    """
    units: Dict[Tuple[str, int, str], List[Cell]] = {}
    for cell in sorted(cells):
        # a family is a prefix of the sort key: each unit is a run of
        # consecutive sorted cells, so every shard built from them is sorted
        units.setdefault((cell.algorithm, cell.delta, cell.chain), []).append(cell)
    buckets: List[List[Cell]] = [[] for _ in range(min(max(shards, 1), len(units)))]
    for index, unit in enumerate(units.values()):
        buckets[index % len(buckets)].extend(unit)
    return buckets


def _execute_cell(
    cell: Cell,
    tracer: Tracer,
    injector: Optional[FaultInjector],
    cell_timeout: Optional[float],
    retries: int,
) -> dict:
    """One cell under the watchdog and the bounded retry loop.

    Raises :class:`CellExecutionError` when the last attempt still fails;
    :class:`InjectedWorkerError` passes straight through — a simulated
    worker crash is the *coordinator's* problem, not a per-cell retry.
    """
    last: Optional[BaseException] = None
    for attempt in range(retries + 1):
        if attempt:
            tracer.metrics.counter("engine.cell_retry").inc()
            time.sleep(_BACKOFF_BASE * attempt)  # deterministic backoff schedule
        try:
            return _run_cell_watchdogged(cell, tracer, injector, attempt, cell_timeout)
        except InjectedWorkerError:
            raise
        except CellTimeout as exc:
            tracer.metrics.counter("engine.cell_timeout").inc()
            last = exc
        except Exception as exc:  # noqa: BLE001 - every failure is named below
            last = exc
    raise CellExecutionError.for_cell(cell, last if last is not None else RuntimeError("unknown"))


def _run_cell_watchdogged(
    cell: Cell,
    tracer: Tracer,
    injector: Optional[FaultInjector],
    attempt: int,
    cell_timeout: Optional[float],
) -> dict:
    """Run one cell, bounded by ``cell_timeout`` seconds when set.

    The timed path computes on a worker thread against a private tracer;
    on success its finished spans are grafted back under the shard span
    and its counters added to the shard's, on timeout the abandoned
    attempt's spans and counters are discarded with it.  Without a
    timeout the cell runs inline — the exact pre-fault-hardening hot path.
    """

    def body(body_tracer: Tracer) -> dict:
        if injector is not None:
            injector.on_cell_body(cell.key, attempt)
        return run_cell(cell, tracer=body_tracer)

    if cell_timeout is None:
        return body(tracer)

    sub = Tracer()
    outcome: List[dict] = []
    failure: List[BaseException] = []

    def target() -> None:
        try:
            outcome.append(body(sub))
        except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
            failure.append(exc)

    watchdogged = threading.Thread(target=target, daemon=True, name=f"cell-{cell.key}")
    watchdogged.start()
    watchdogged.join(cell_timeout)
    if watchdogged.is_alive():
        raise CellTimeout(cell.key, cell_timeout)
    tracer.graft(sub)
    if failure:
        raise failure[0]
    return outcome[0]


def run_shard(payload: dict, on_row=None) -> Tuple[int, List[dict], dict, dict]:
    """Execute one shard payload; the unit of work every backend submits.

    Returns ``(shard_index, rows, trace_document, cache_stats)``.  Must stay
    a module-level function: the process backend's spawn context pickles it
    by reference.  ``on_row`` is an in-process-only hook — serial rounds
    pass the sweep's progress callback; pool workers always run with the
    default ``None`` (a callback could not cross the process boundary).
    """
    shard_index = payload["shard"]
    cells = [Cell.from_dict(d) for d in payload["cells"]]
    store = ResultStore(payload["out_dir"]) if payload["out_dir"] else None
    plan = FaultPlan.from_dict(payload["plan"]) if payload.get("plan") else None
    injector = (
        FaultInjector(plan, shard=shard_index, in_worker=payload.get("in_worker", False))
        if plan is not None
        else None
    )
    tracer = Tracer()
    cache = CanonicalFormCache()
    rows: List[dict] = []
    with _AMBIENT_LOCK:
        with use_tracer(tracer), use_faults(injector), use_canonical_cache(cache):
            with tracer.span(
                "engine.shard",
                shard=shard_index,
                cells=len(cells),
                round=payload.get("round", 0),
            ) as span:
                for cell in cells:
                    if injector is not None:
                        injector.on_worker_cell(cell.key, payload.get("round", 0))
                    row = _execute_cell(
                        cell, tracer, injector, payload.get("cell_timeout"), payload.get("retries", 1)
                    )
                    rows.append(row)
                    if store is not None:
                        store.append(shard_index, row)
                    if on_row is not None:
                        on_row(row, cache.stats)
                span.set(
                    cache_hits=cache.stats.hits,
                    cache_misses=cache.stats.misses,
                )
    doc = trace_document(tracer, command=f"sweep shard {shard_index}")
    return shard_index, rows, doc, cache.stats.as_dict()


def shard_payloads(
    shards: List[List[Cell]],
    store: Optional[ResultStore],
    plan: Optional[FaultPlan],
    round_: int,
    cell_timeout: Optional[float],
    retries: int,
    in_worker: bool,
) -> List[dict]:
    """Payload dicts for one round of shards, plain data that pickles
    unchanged into a pool worker.

    ``in_worker`` is true for a parallel round: only then do the shards run
    in processes of their own, where a ``kill-worker`` fault may arm the
    real ``SIGKILL``.
    """
    return [
        {
            "shard": index,
            "cells": [cell.as_dict() for cell in bucket],
            "out_dir": str(store.directory) if store else None,
            "plan": plan.as_dict() if plan is not None else None,
            "round": round_,
            "cell_timeout": cell_timeout,
            "retries": retries,
            "in_worker": in_worker,
        }
        for index, bucket in enumerate(shards)
    ]
