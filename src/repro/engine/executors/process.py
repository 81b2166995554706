"""The process-pool backend: the original spawn pool as a thin adapter.

A round's shards map over a ``concurrent.futures.ProcessPoolExecutor``
built on the **spawn** context: workers import the package fresh, so no
installed tracer, cache, or other interpreter state leaks across the
process boundary.  Because shards really do live in their own processes,
this is the one shipped backend whose ``kill-worker`` faults arm the real
``SIGKILL`` trigger (``separate_process=True``) — a dead worker surfaces
as ``BrokenProcessPool`` on every future the broken pool still owed, which
:meth:`ProcessExecutor.is_worker_loss` maps to the driver's reassignment
policy.

This module is a sanctioned worker spawner (``LintConfig.worker_modules``).
"""

from __future__ import annotations

import multiprocessing
from typing import List, Tuple

from ..faults import InjectedWorkerError
from .base import ShardFailure, ShardOutcome, SweepExecutor
from .shard import run_shard

__all__ = ["ProcessExecutor"]


class ProcessExecutor(SweepExecutor):
    """Ship each shard to a spawned pool worker."""

    name = "process"
    parallel = True
    separate_process = True

    def __init__(self, workers: int = 2):
        #: pool width; an explicitly requested process backend always gets
        #: a real pool, so fewer than two workers still spawn two
        self.width = max(2, workers)

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
