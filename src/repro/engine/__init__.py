"""Parallel sharded experiment engine.

``repro.engine`` turns the serial per-experiment scripts into a batched,
process-parallel sweep:

* :mod:`repro.engine.grid` — declarative job grids (algorithm × Delta ×
  chain × seed) expanded into deterministic :class:`~repro.engine.grid.Cell`
  jobs;
* :mod:`repro.engine.cache` — a content-addressed canonical-form cache
  (one process-wide memory tier, the memo :data:`repro.graphs.memo.FORMS`)
  installed into :mod:`repro.graphs.isomorphism` for the duration of a run;
* :mod:`repro.engine.store` — resumable JSONL result shards plus the merged
  ``summary.json``;
* :mod:`repro.engine.pool` — the backend-agnostic sweep driver: shards
  cells, merges per-shard traces into one document, and survives dead
  workers, hung cells and transient failures via bounded retries, per-cell
  watchdogs and shard reassignment (see ``docs/fault_injection.md``);
* :mod:`repro.engine.executors` — the pluggable
  :class:`~repro.engine.executors.SweepExecutor` backends the driver
  dispatches shards to: ``inline`` (in-process, zero spawn), ``process``
  (the spawn-context pool) and ``socket`` (multi-host shard servers over
  JSON framing);
* :mod:`repro.engine.faults` — a deterministic fault-injection layer (seeded
  :class:`~repro.engine.faults.FaultPlan`) that replays worker kills and
  crashes, shard truncation and cell stalls so every recovery path is
  mechanically exercised.

Entry points: :func:`run_sweep` (or ``python -m repro sweep`` /
:func:`repro.api.sweep`).  See ``docs/engine.md``.
"""

from .cache import CacheStats, CanonicalFormCache, graph_digest
from .executors import (
    BACKENDS,
    ExecutionOptions,
    InlineExecutor,
    ProcessExecutor,
    ShardServer,
    SocketExecutor,
    SweepExecutor,
    as_executor,
)
from .faults import Fault, FaultInjector, FaultPlan, InjectedWorkerError, use_faults
from .grid import ALGORITHMS, CHAINS, Cell, GridSpec, e1_grid, expand, run_cell, smoke_grid
from .pool import CellExecutionError, CellTimeout, SweepResult, run_sweep, verify_store
from .store import ResultStore

__all__ = [
    "ALGORITHMS",
    "BACKENDS",
    "CHAINS",
    "CacheStats",
    "CanonicalFormCache",
    "Cell",
    "CellExecutionError",
    "CellTimeout",
    "ExecutionOptions",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "GridSpec",
    "InjectedWorkerError",
    "InlineExecutor",
    "ProcessExecutor",
    "ResultStore",
    "ShardServer",
    "SocketExecutor",
    "SweepExecutor",
    "SweepResult",
    "as_executor",
    "e1_grid",
    "expand",
    "graph_digest",
    "run_cell",
    "run_sweep",
    "smoke_grid",
    "use_faults",
    "verify_store",
]
