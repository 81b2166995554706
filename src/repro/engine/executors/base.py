"""The ``SweepExecutor`` contract: where shards run is an interface.

:func:`repro.engine.run_sweep` owns everything a sweep *means* — sharding,
the :class:`~repro.engine.store.ResultStore`, progress emission, resume and
dedup bookkeeping, and the dead-worker recovery policy.  An executor owns
exactly one thing: getting a shard payload executed somewhere and the
outcome back.  Three backends ship (``docs/engine.md`` documents how to
write a fourth):

* :class:`~repro.engine.executors.inline.InlineExecutor` — in-process, one
  shard after another, zero spawn; the default for smoke grids and unit
  tests;
* :class:`~repro.engine.executors.process.ProcessExecutor` — the original
  spawn-context process pool, now a thin adapter;
* :class:`~repro.engine.executors.sockets.SocketExecutor` — a stdlib
  multi-host backend speaking JSON over sockets.

The conformance contract (``tests/test_executors.py``) is the same for all
of them: rows byte-identical to the serial baseline, and every fault kind
survived with byte-identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = [
    "BACKENDS",
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

    #: registry name; also reported in ``SweepResult.backend``
    name: str = "base"
    #: shard fan-out of a parallel round (1 for serial backends)
    width: int = 1
    #: the backend runs a round's shards concurrently; ``False`` makes the
    #: driver hand it one shard at a time, with the per-row callback
    parallel: bool = False
    #: shards execute in their own OS process.  Only then may the fault
    #: injector arm the *real* ``SIGKILL`` for ``kill-worker`` faults;
    #: in-process backends degrade the kill to a raised
    #: :class:`~repro.engine.faults.InjectedWorkerError`, which exercises the
    #: same recovery path without shooting the test process
    separate_process: bool = False

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
    ``--backend``, ``--hosts``, ``--cell-timeout``, ``--retries``,
    ``--max-restarts``, whose defaults are this class's),
    :func:`as_executor` and :func:`repro.engine.run_sweep`, so each
    constraint is checked and worded in exactly one place: at least one
    worker, positive timeouts, non-negative budgets, a known backend name,
    and ``hosts`` only where it means something.  ``hosts`` takes a
    ``"HOST:PORT,..."`` spec or ``(host, port)`` pairs and is parsed here,
    once, into pairs.
    """

    workers: int = 1
    backend: Optional[str] = None
    hosts: Tuple[Tuple[str, int], ...] = ()
    cell_timeout: Optional[float] = None
    retries: int = 1
    max_restarts: int = 2

    def __post_init__(self):
        from .sockets import parse_hosts

        object.__setattr__(self, "hosts", tuple(parse_hosts(self.hosts)))
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers} (serial runs are "
                f"workers=1 on the inline backend)"
            )
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from "
                f"{', '.join(sorted(BACKENDS))}"
            )
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.hosts and self.backend != "socket":
            raise ValueError(
                f"hosts only apply to the socket backend, not backend={self.backend!r}"
            )

    def engine_kwargs(self) -> dict:
        """The ``run_sweep`` keyword arguments this option set spells."""
        kwargs = {
            "workers": self.workers,
            "backend": self.backend,
            "cell_timeout": self.cell_timeout,
            "retries": self.retries,
            "max_restarts": self.max_restarts,
        }
        if self.hosts:
            kwargs["hosts"] = list(self.hosts)
        return kwargs


def _make_inline(workers: int, hosts) -> SweepExecutor:
    from .inline import InlineExecutor

    return InlineExecutor()


def _make_process(workers: int, hosts) -> SweepExecutor:
    from .process import ProcessExecutor

    return ProcessExecutor(workers=workers)


def _make_socket(workers: int, hosts) -> SweepExecutor:
    from .sockets import SocketExecutor

    return SocketExecutor(workers=workers, hosts=hosts)


#: backend name -> factory; the CLI's ``--backend`` choices come from here
BACKENDS = {
    "inline": _make_inline,
    "process": _make_process,
    "socket": _make_socket,
}


def as_executor(backend, *, workers: int = 0, hosts=None) -> SweepExecutor:
    """Resolve ``backend`` (name, instance or ``None``) to an executor.

    ``None`` keeps the historical behaviour: ``workers >= 2`` selects the
    process pool, anything less runs inline — so ``run_sweep(workers=0)``
    is still the serial baseline and ``run_sweep(workers=4)`` still spawns.
    A named backend, its ``workers`` and its ``hosts`` are checked by
    :class:`ExecutionOptions`; an instance brings its own.
    """
    if isinstance(backend, SweepExecutor):
        return backend
    options = ExecutionOptions(workers=workers or 1, backend=backend, hosts=hosts)
    name = options.backend or ("process" if workers >= 2 else "inline")
    return BACKENDS[name](workers, options.hosts)
