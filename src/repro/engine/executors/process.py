"""The process-pool backend: a spawn-context pool as a thin adapter.

A round's shards map over a ``concurrent.futures.ProcessPoolExecutor``
built on the **spawn** context: workers import the package fresh, so no
installed tracer, cache, or other interpreter state leaks across the
process boundary.  Because shards really do live in their own processes,
this is the backend whose ``kill-worker`` faults arm the real ``SIGKILL``
trigger (``parallel=True``) — a dead worker surfaces as
``BrokenProcessPool`` on every future the broken pool still owed, which
:meth:`ProcessExecutor.is_worker_loss` maps to the driver's reassignment
policy.

A spawned worker first re-runs the parent's ``__main__``, so
:meth:`ProcessExecutor.start` refuses one it could not find (a script
piped on stdin): otherwise every worker would die at start-up and the
driver would report the pool as recovered worker losses.

This module is a sanctioned worker spawner (``LintConfig.worker_modules``).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import List, Tuple

from ..faults import InjectedWorkerError
from .base import ShardFailure, ShardOutcome, SweepExecutor
from .shard import run_shard

__all__ = ["ProcessExecutor"]


class ProcessExecutor(SweepExecutor):
    """Ship each shard to a spawned pool worker."""

    name = "process"
    parallel = True

    def __init__(self, workers: int = 2):
        #: pool width
        self.width = workers

    def start(self) -> None:
        """Refuse a ``__main__`` that spawned workers could not re-run.

        Spawn's own rule (``multiprocessing.spawn.get_preparation_data``):
        a worker imports ``__main__`` by its module name when it has one,
        and otherwise runs its ``__file__``, taken relative to the
        directory the parent started in.  Only a file that does not exist
        (``<stdin>``) fails, and it would fail in every worker.
        """
        main = sys.modules["__main__"]
        if getattr(getattr(main, "__spec__", None), "name", None) is not None:
            return
        path = getattr(main, "__file__", None)
        if path is None:
            return
        origin = multiprocessing.process.ORIGINAL_DIR
        if not os.path.isabs(path) and origin is not None:
            path = os.path.join(origin, path)
        if not os.path.exists(path):
            raise ValueError(
                f"spawned workers re-run __main__ from {os.path.normpath(path)!r}, "
                f"which does not exist: run the script from a file, or use workers=1"
            )

    def run_round(
        self, payloads: List[dict], on_row=None
    ) -> Tuple[List[ShardOutcome], List[ShardFailure]]:
        outcomes: List[ShardOutcome] = []
        failures: List[ShardFailure] = []
        if not payloads:
            return outcomes, failures
        from concurrent.futures import ProcessPoolExecutor

        # spawn, not fork: workers must re-import the package so no
        # half-initialised interpreter state (or installed caches/tracers)
        # leaks across the process boundary
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(self.width, len(payloads)), mp_context=context
        ) as pool:
            futures = [(pool.submit(run_shard, payload), payload) for payload in payloads]
            for future, payload in futures:
                try:
                    outcomes.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - triaged by the driver
                    failures.append((payload, exc))
        return outcomes, failures

    def is_worker_loss(self, exc: BaseException) -> bool:
        from concurrent.futures.process import BrokenProcessPool

        return isinstance(exc, (BrokenProcessPool, InjectedWorkerError))
