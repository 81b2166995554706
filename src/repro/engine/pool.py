"""The backend-agnostic sweep driver: sharding, persistence, recovery.

:func:`run_sweep` owns everything a sweep *means* — expanding the grid,
splitting pending cells round-robin by placement unit into shards, the
:class:`~repro.engine.store.ResultStore`, progress emission, resume/dedup
bookkeeping, and the dead-worker recovery policy.  *Where* a shard runs is
delegated to a :class:`~repro.engine.executors.SweepExecutor` backend that
``workers`` picks: ``inline`` executes in-process, one shard after another
(the serial baseline), and ``process`` maps shards over a spawn-context
pool — see :mod:`repro.engine.executors` and ``docs/engine.md``.

Both backends funnel through the same shard runtime
(:mod:`repro.engine.executors.shard`), so the invariants are uniform: each
shard runs under its own :class:`repro.obs.Tracer` and an installed
:class:`~repro.engine.cache.CanonicalFormCache`, appends rows to its store
shard as it goes, and applies the per-cell watchdog/retry discipline.
Rows carry no wall-clock data and are merged in cell-key order, so a sweep
result is byte-for-byte identical whichever backend (and however many
workers) produced it — and, by the same construction, however many faults
it survived on the way.

Sharding
--------
The driver splits the cells of every round, recovery rounds included and
on every backend, with :func:`~repro.engine.executors.shard.shard_cells`:

* a placement unit is every seed of one ``(algorithm, delta, chain)``
  family, because the seed never enters the construction and the
  process-wide run memo answers a replica whose first seed ran in the
  same process;
* units are dealt round-robin in sorted cell order and each shard lists
  its cells sorted, so a one-shard (serial) round runs the sorted cell
  list and a grid of one seed per family splits as a round-robin over
  its cells.

Given up: greedy and proposal share canonical forms only at small Δ,
where cells are cheap, and a worker that runs only one of them loses
that (``docs/engine.md``).

Fault tolerance
---------------
The engine assumes workers can die, cells can hang, and shards can tear:

* every cell runs under an optional watchdog (``cell_timeout`` seconds) and
  a bounded, deterministically backed-off retry loop (``retries``); a cell
  whose error survives every retry surfaces as a :class:`CellExecutionError`
  that **names the failing cell** instead of a bare pool teardown;
* a shard whose worker dies (SIGKILL, crash) is detected by
  the driver via the backend's ``is_worker_loss`` triage, which reads back
  whatever rows the dead worker had already flushed and **reassigns only
  the missing cells** to a fresh round (``max_restarts`` rounds,
  ``engine.recovery`` spans); the last restart round always runs inline —
  recovery must not be starved by an environment that keeps killing
  whatever the backend spawns;
* store damage degrades gracefully (see :mod:`repro.engine.store`) and is
  exercised end to end by :mod:`repro.engine.faults` — pass ``faults=``
  (a :class:`~repro.engine.faults.FaultPlan`) to replay a failure scenario
  deterministically.

The progress monitor's polling thread is why this module remains a
sanctioned worker module (``LintConfig.worker_modules``).
"""

from __future__ import annotations

import json
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..obs.export import counter_total, merge_trace_documents
from ..obs.progress import NULL_PROGRESS, NullProgressEmitter
from ..obs.tracer import current_tracer
from .cache import CacheStats
from .executors.base import ExecutionOptions, SweepExecutor, as_executor
from .executors.shard import (
    CellExecutionError,
    CellTimeout,
    shard_cells,
    shard_payloads,
)
from .faults import as_plan
from .grid import Cell, GridSpec, compute_cell, expand
from .store import ResultStore

__all__ = [
    "CellExecutionError",
    "CellTimeout",
    "SweepResult",
    "run_sweep",
    "verify_store",
]


@dataclass
class SweepResult:
    """Outcome of one sweep: merged rows, cache stats, merged trace."""

    grid: dict
    rows: List[dict]
    workers: int
    cache: CacheStats = field(default_factory=CacheStats)
    trace: Optional[dict] = None
    resumed: int = 0
    out_dir: Optional[str] = None
    #: restart/reassignment account: zeros on a fault-free run
    recovery: Dict[str, int] = field(default_factory=dict)
    #: name of the executor that ran the parallel rounds
    backend: str = "inline"

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    def summary(self) -> str:
        """One-line human account of the sweep."""
        fresh = len(self.rows) - self.resumed
        line = (
            f"{len(self.rows)} cells ({fresh} computed, {self.resumed} resumed) "
            f"on {self.workers} worker(s) via the {self.backend} backend; "
            f"canonical-form cache hit-rate "
            f"{self.cache.hit_rate:.0%} ({self.cache.hits}/{self.cache.lookups})"
        )
        restarts = self.recovery.get("restarts", 0)
        if restarts:
            line += (
                f"; recovered in {restarts} restart(s) "
                f"({self.recovery.get('reassigned', 0)} cells reassigned, "
                f"{self.recovery.get('worker_losses', 0)} worker(s) lost)"
            )
        return line


def run_sweep(
    grid: Union[GridSpec, Mapping, None] = None,
    *,
    workers: int = 0,
    backend: Optional[SweepExecutor] = None,
    out_dir=None,
    resume: bool = False,
    tracer=None,
    faults=None,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    max_restarts: int = 2,
    progress=None,
) -> SweepResult:
    """Run every cell of ``grid``, sharded over the backend ``workers`` picks.

    Parameters
    ----------
    grid:
        A :class:`GridSpec`, a plain mapping of axes, or ``None`` for the
        default E1 grid.
    workers:
        ``0`` or ``1`` runs the inline backend (the serial baseline the
        process pool must reproduce byte-identically); ``n >= 2`` shards
        over a pool of ``n`` spawned workers.  A negative count, like any
        value :class:`~repro.engine.executors.ExecutionOptions` rejects,
        raises ``ValueError``.
    backend:
        A :class:`~repro.engine.executors.SweepExecutor` instance that runs
        the shards instead of the one ``workers`` picks; ``None`` (default)
        lets ``workers`` pick.  Any other value raises ``ValueError``.
    out_dir:
        Results directory (JSONL shards, ``summary.json``, ``trace.json``).
        ``None`` keeps everything in memory — such a sweep cannot resume,
        and a lost worker's finished cells must be recomputed instead of
        read back.
    resume:
        Skip cells whose rows already sit in ``out_dir``'s shards; their
        persisted rows are merged into the result untouched (rows for cells
        outside this grid are ignored).
    tracer:
        Parent tracer for the coordinating ``engine.sweep`` span; defaults
        to the ambient tracer.
    faults:
        A :class:`~repro.engine.faults.FaultPlan` (or its dict form, or a
        path to its JSON file) replayed deterministically during the sweep.
    cell_timeout:
        Per-cell watchdog in seconds; ``None`` (default) disables it.
    retries:
        Extra attempts per cell after a timeout or error (default 1).
    max_restarts:
        Rounds of dead-worker recovery: each round reassigns only the
        cells the lost shards had not yet persisted (default 2).
    progress:
        A :class:`repro.obs.progress.ProgressEmitter` fed heartbeat events
        while the sweep runs (serial rounds report per row; parallel
        rounds are polled from the result store).
        The emitter only observes the sweep — rows are byte-identical with
        or without it.  ``None`` (default) uses the shared no-op emitter.
    """
    # the execution-control rules, worded once in ExecutionOptions;
    # workers=0 is the serial spelling
    ExecutionOptions(
        workers=workers or 1,
        cell_timeout=cell_timeout,
        retries=retries,
        max_restarts=max_restarts,
    )
    executor = as_executor(backend, workers=workers)
    if grid is None:
        spec = GridSpec()
    elif isinstance(grid, GridSpec):
        spec = grid
    else:
        spec = GridSpec.from_mapping(grid)
    tracer = tracer if tracer is not None else current_tracer()
    plan = as_plan(faults)
    cells = expand(spec)
    cell_keys = {cell.key for cell in cells}
    store = ResultStore(out_dir) if out_dir else None

    parallel = executor.parallel
    # the serial fallback executor: used for every round of a non-parallel
    # backend and for the last recovery round of a parallel one
    if parallel:
        from .executors.inline import InlineExecutor

        fallback: SweepExecutor = InlineExecutor()
    else:
        fallback = executor

    done: Dict[str, dict] = {}
    if resume:
        if store is None:
            raise ValueError("resume=True needs an out_dir to read shards from")
        done = {key: row for key, row in store.completed().items() if key in cell_keys}
    pending = [cell for cell in cells if cell.key not in done]

    collected: Dict[str, dict] = {}
    shard_docs: List[dict] = []
    stats_dicts: List[dict] = []
    recovery = {"restarts": 0, "reassigned": 0, "worker_losses": 0}
    failures: List[Tuple[dict, BaseException]] = []

    progress = progress if progress is not None else NULL_PROGRESS
    live = {"done": len(done)}

    def _note_row(row, cache_stats) -> None:
        # serial rounds only: exact heartbeats (closure-local state)
        live["done"] += 1
        progress.update(
            live["done"],
            cache_hits=cache_stats.hits,
            cache_lookups=cache_stats.lookups,
        )

    monitor = None
    if parallel and store is not None and not isinstance(progress, NullProgressEmitter):
        monitor = _ProgressMonitor(progress, store, total=len(cells))

    try:
        progress.start(total=len(cells), resumed=len(done))
        if monitor is not None:
            monitor.start()
        executor.start()
        with tracer.span(
            "engine.sweep",
            cells=len(cells),
            pending=len(pending),
            resumed=len(done),
            workers=workers,
            backend=executor.name,
        ) as sweep_span:
            remaining = list(pending)
            round_ = 0
            while remaining:
                span_ctx = (
                    tracer.span("engine.recovery", round=round_, cells=len(remaining))
                    if round_ > 0
                    else nullcontext()
                )
                # the last restart round runs in-process: recovery must not be
                # starved by an environment that keeps killing fresh workers
                parallel_round = parallel and round_ < max_restarts
                active = executor if parallel_round else fallback
                with span_ctx:
                    shards = shard_cells(remaining, active.width if parallel_round else 1)
                    payloads = shard_payloads(
                        shards, store, plan, round_,
                        cell_timeout, retries,
                        in_worker=parallel_round,
                    )
                    # serial rounds report per row; the monitor polls parallel ones
                    outcomes, failures = active.run_round(
                        payloads, None if parallel_round else _note_row
                    )
                    for _, rows, doc, stats in sorted(outcomes, key=lambda item: item[0]):
                        for row in rows:
                            collected.setdefault(row["key"], row)
                        shard_docs.append(doc)
                        stats_dicts.append(stats)
                # round boundary: forced heartbeat with best-known counts
                live["done"] = len(done) + len(collected)
                round_stats = CacheStats.merged(stats_dicts)
                progress.update(
                    live["done"],
                    cache_hits=round_stats.hits,
                    cache_lookups=round_stats.lookups,
                    force=True,
                )
                if not failures:
                    break
                # dead-worker recovery: read back what the lost shards already
                # flushed, then reassign only the cells still missing
                persisted = store.completed() if store is not None else {}
                for key, row in persisted.items():
                    if key in cell_keys and key not in done:
                        collected.setdefault(key, row)
                remaining = [cell for cell in remaining if cell.key not in collected and cell.key not in done]
                recovery["worker_losses"] += sum(
                    1 for _, exc in failures if active.is_worker_loss(exc)
                )
                if not remaining:
                    # the dead shard had already flushed every cell it owed
                    break
                if round_ >= max_restarts:
                    _abort_sweep(
                        store, spec, done, collected, stats_dicts, workers,
                        recovery, failures, progress,
                    )
                recovery["restarts"] += 1
                recovery["reassigned"] += len(remaining)
                tracer.metrics.counter("engine.sweep_restart").inc()
                round_ += 1

            cache_stats = CacheStats.merged(stats_dicts)
            sweep_span.set(
                cache_hits=cache_stats.hits,
                cache_misses=cache_stats.misses,
                cache_hit_rate=round(cache_stats.hit_rate, 4),
                restarts=recovery["restarts"],
            )

        all_rows = sorted(
            _dedup_rows(done, collected), key=lambda row: row.get("key", "")
        )
        merged = merge_trace_documents(
            shard_docs,
            command=f"sweep ({len(cells)} cells, {workers} workers, {executor.name} backend)",
            extra={"cache": cache_stats.as_dict(), "recovery": recovery},
        )
        result = SweepResult(
            grid=spec.as_dict(),
            rows=all_rows,
            workers=workers,
            cache=cache_stats,
            trace=merged,
            resumed=len(done),
            out_dir=str(store.directory) if store else None,
            recovery=recovery,
            backend=executor.name,
        )
        if store is not None:
            store.write_summary(
                spec.as_dict(),
                all_rows,
                cache_stats=cache_stats.as_dict(),
                workers=workers,
                recovery=recovery,
            )
            store.trace_path.write_text(
                json.dumps(merged, indent=2, default=str) + "\n", encoding="utf-8"
            )
        if monitor is not None:
            monitor.stop()
        # the final event is exact by construction: `done` is the merged row
        # count — the same number summary.json records as "cells"
        progress.finish(
            done=len(all_rows),
            failed=0,
            retries=counter_total(merged, "engine.cell_retry"),
            cache_hits=cache_stats.hits,
            cache_lookups=cache_stats.lookups,
        )
        return result
    finally:
        executor.close()
        if fallback is not executor:
            fallback.close()
        if monitor is not None:
            monitor.stop()
        progress.close()


class _ProgressMonitor:
    """Background poller feeding heartbeats while parallel shards run.

    The driver cannot observe a pool worker's rows directly (shards only
    report back when they finish), so parallel-round heartbeats poll the
    result store's cheap line count — what the workers have flushed so
    far.  That
    count can legitimately *exceed* the sweep's cell total (torn lines and
    duplicate cells from a recovered worker both count as lines), so the
    monitor clamps it to the cell total itself rather than trusting every
    emitter to: a heartbeat must never report ``done > total``.  The
    counts remain an approximation refined by the exact ``final`` event.
    The thread target is a bound method touching only instance state, the
    engine-concurrency lint's sanctioned shape.
    """

    def __init__(self, progress, store: ResultStore, total: int):
        self._progress = progress
        self._store = store
        self._total = total
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._poll, daemon=True, name="sweep-progress"
        )

    def start(self) -> None:
        self._thread.start()

    def tick(self) -> None:
        """One clamped heartbeat from the store's line count."""
        self._progress.update(min(self._store.count_rows(), self._total))

    def _poll(self) -> None:
        interval = max(0.05, float(self._progress.interval))
        while not self._stop_event.wait(interval):
            self.tick()

    def stop(self) -> None:
        self._stop_event.set()
        if self._thread.is_alive():
            self._thread.join(timeout=2.0)


def _dedup_rows(done: Dict[str, dict], collected: Dict[str, dict]) -> List[dict]:
    """Merge resumed and fresh rows, first occurrence per cell key winning.

    A shard killed after flushing a row but before the resume bookkeeping
    saw it can present the same cell twice (persisted + recomputed); the
    rows are identical by determinism, so keeping the first is sound.
    """
    merged: Dict[str, dict] = dict(done)
    for key, row in collected.items():
        merged.setdefault(key, row)
    return list(merged.values())


def _abort_sweep(
    store, spec, done, collected, stats_dicts, workers, recovery, failures,
    progress=NULL_PROGRESS,
) -> None:
    """Give up after the restart budget: record the damage, raise named."""
    records = []
    first_error: Optional[BaseException] = None
    for payload, exc in failures:
        if first_error is None:
            first_error = exc
        if isinstance(exc, CellExecutionError):
            records.append(exc.as_record())
        else:
            for cell_dict in payload["cells"]:
                cell = Cell.from_dict(cell_dict)
                if cell.key not in collected and cell.key not in done:
                    records.append(
                        {**cell.as_dict(), "key": cell.key, "error": f"{type(exc).__name__}: {exc}"}
                    )
    rows = sorted(_dedup_rows(done, collected), key=lambda row: row.get("key", ""))
    stats = CacheStats.merged(stats_dicts)
    if store is not None:
        store.write_summary(
            spec.as_dict(),
            rows,
            cache_stats=stats.as_dict(),
            workers=workers,
            failed=records,
            recovery=recovery,
        )
    # the sweep *completed* with failures recorded, it did not vanish: emit
    # the exact final event (done == surviving rows, failed == records)
    # before raising, so an all-cells-failed sweep still closes its
    # lifecycle with `final` rather than a bare `aborted`
    progress.finish(
        done=len(rows),
        failed=len(records),
        cache_hits=stats.hits,
        cache_lookups=stats.lookups,
    )
    if isinstance(first_error, CellExecutionError):
        raise first_error
    keys = ", ".join(sorted(record["key"] for record in records)) or "?"
    raise CellExecutionError(
        keys, cause=f"shards failed after {recovery['restarts']} restart(s): {first_error}"
    ) from first_error


def verify_store(directory) -> dict:
    """Replay a finished store's rows against fresh serial computation.

    Re-executes every persisted cell in-process (no cache, no workers) and
    compares the recomputed row byte-for-byte with the stored one — the
    independent check that a store (however many faults its sweep survived)
    contains exactly what a fault-free serial sweep would have produced.
    Also cross-checks ``summary.json``'s rows against the shard rows when a
    summary is present.

    Every cell is recomputed by :func:`~repro.engine.grid.compute_cell`,
    which reads no run memo: a verdict this process already holds, from a
    sweep it ran or from a replica seed, is never taken on trust, so the
    check is as independent here as in ``repro verify --store``'s fresh
    process.

    Returns a JSON-ready report::

        {"cells": N, "matched": N, "mismatched": [...], "summary_consistent": bool}
    """
    store = ResultStore(directory)
    rows = store.rows()
    tracer = current_tracer()
    mismatched: List[dict] = []
    with tracer.span("engine.verify_store", cells=len(rows)):
        for row in rows:
            fresh = compute_cell(Cell.from_dict(row))
            stored_bytes = json.dumps(row, sort_keys=True, default=str)
            fresh_bytes = json.dumps(fresh, sort_keys=True, default=str)
            if stored_bytes != fresh_bytes:
                mismatched.append({"key": row["key"], "stored": row, "recomputed": fresh})
    summary = store.read_summary()
    summary_consistent = True
    if summary is not None:
        summary_rows = json.dumps(summary.get("rows", []), sort_keys=True, default=str)
        shard_rows = json.dumps(rows, sort_keys=True, default=str)
        summary_consistent = summary_rows == shard_rows
    return {
        "cells": len(rows),
        "matched": len(rows) - len(mismatched),
        "mismatched": mismatched,
        "summary_consistent": summary_consistent,
        "scan": dict(store.last_scan),
    }
