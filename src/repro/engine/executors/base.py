"""The ``SweepExecutor`` contract: where shards run is an interface.

:func:`repro.engine.run_sweep` owns everything a sweep *means* — sharding,
the :class:`~repro.engine.store.ResultStore`, progress emission, resume and
dedup bookkeeping, and the dead-worker recovery policy.  An executor owns
exactly one thing: getting a shard payload executed somewhere and the
outcome back.  Two backends ship, and ``workers`` picks between them
(:func:`as_executor`):

* :class:`~repro.engine.executors.inline.InlineExecutor` — in-process, one
  shard after another, zero spawn; ``workers < 2``, the serial baseline;
* :class:`~repro.engine.executors.process.ProcessExecutor` — a
  spawn-context process pool; ``workers >= 2``.

The conformance contract (``tests/test_executors.py``) is the same for
both: rows byte-identical to the serial baseline, and every fault kind
survived with byte-identical rows.  ``docs/engine.md`` documents how to
write a backend and pass it in as an instance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

__all__ = [
    "ExecutionOptions",
    "SweepExecutor",
    "as_executor",
]

#: one shard's result: ``(shard_index, rows, trace_document, cache_stats)``
ShardOutcome = Tuple[int, List[dict], dict, dict]
#: a shard that did not finish: ``(payload, exception)``
ShardFailure = Tuple[dict, BaseException]


class SweepExecutor:
    """Base class every sweep backend subclasses.

    The driver's calls, in order:

    1. :meth:`start` once, before the first round;
    2. ``run_round(payloads, on_row=None)`` once per (recovery) round with
       that round's shard payloads, returning ``(outcomes, failures)``.
       It must never raise for a shard failure: the driver applies the
       recovery policy.  The driver passes the per-row progress callback
       ``on_row`` only to backends that are not :attr:`parallel`;
    3. :meth:`is_worker_loss` to triage each failure (worker death, which
       recovery reassigns, vs a named cell error, which aborts);
    4. :meth:`close` exactly once, however the sweep ends.

    Each backend defines ``run_round`` itself; there is no default.
    """

    #: reported in ``SweepResult.backend``
    name: str = "base"
    #: shard fan-out of a parallel round (1 for serial backends)
    width: int = 1
    #: shards run concurrently, each in its own OS process.  ``False`` makes
    #: the driver hand the backend one shard at a time, with the per-row
    #: callback.  Only parallel shards may arm the fault injector's *real*
    #: ``SIGKILL`` for ``kill-worker`` faults; in-process shards degrade the
    #: kill to a raised :class:`~repro.engine.faults.InjectedWorkerError`,
    #: which exercises the same recovery path without shooting the test
    #: process
    parallel: bool = False

    def start(self) -> None:
        """Lifecycle hook: acquire backend resources before the first round."""

    def is_worker_loss(self, exc: BaseException) -> bool:
        """Whether a shard failure means the worker itself died."""
        from ..faults import InjectedWorkerError

        return isinstance(exc, InjectedWorkerError)

    def close(self) -> None:
        """Lifecycle hook: release backend resources; idempotent."""


@dataclass(frozen=True)
class ExecutionOptions:
    """The validated execution-control vocabulary shared by sweep and serve-api.

    One object backs the CLI's execution flags (``--workers``,
    ``--cell-timeout``, ``--retries``, ``--max-restarts``, whose defaults
    are this class's) and :func:`repro.engine.run_sweep`, so each
    constraint is checked and worded in exactly one place: at least one
    worker, positive timeouts and non-negative budgets.
    """

    workers: int = 1
    cell_timeout: Optional[float] = None
    retries: int = 1
    max_restarts: int = 2

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers} (serial runs are "
                f"workers=1 on the inline backend)"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")

    def engine_kwargs(self) -> dict:
        """The ``run_sweep`` keyword arguments this option set spells."""
        return asdict(self)


def as_executor(backend: Optional[SweepExecutor] = None, *, workers: int = 0) -> SweepExecutor:
    """The executor a sweep runs on: ``backend`` itself, or the one ``workers`` picks.

    ``workers >= 2`` builds the process pool, anything less runs inline, so
    ``run_sweep(workers=0)`` is the serial baseline and
    ``run_sweep(workers=4)`` spawns.  A :class:`SweepExecutor` instance
    passes through unchanged; that is how tests inject fakes.
    """
    if isinstance(backend, SweepExecutor):
        return backend
    if backend is not None:
        raise ValueError(
            f"unknown backend {backend!r}: pass a SweepExecutor instance, or "
            f"none and let workers pick (inline below 2, process from 2)"
        )
    if workers >= 2:
        from .process import ProcessExecutor

        return ProcessExecutor(workers)
    from .inline import InlineExecutor

    return InlineExecutor()
