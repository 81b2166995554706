"""The in-process backend: shards one after another, zero spawn.

``InlineExecutor`` is the serial baseline the process backend must
reproduce byte-identically, and the backend of every sweep below two
workers — no process spawn, nothing to clean up, full per-row progress
callbacks.

A round is a plain loop over its shards in submission order.  The ambient
tracer/fault hooks are process-global, so in-process shards must not
overlap anyway (:mod:`repro.engine.executors.shard` serialises them).
Only the three engine failures a shard can raise — an injected worker
error, a cell that failed every retry, a cell timeout — become shard
failures for the driver to triage; anything else (a cancelled service
job raised from the progress hook, say) unwinds the sweep.
"""

from __future__ import annotations

from typing import List, Tuple

from ..faults import InjectedWorkerError
from .base import ShardFailure, ShardOutcome, SweepExecutor
from .shard import CellExecutionError, CellTimeout, run_shard

__all__ = ["InlineExecutor"]


class InlineExecutor(SweepExecutor):
    """Run every shard in this process, one after another."""

    name = "inline"

    def run_round(
        self, payloads: List[dict], on_row=None
    ) -> Tuple[List[ShardOutcome], List[ShardFailure]]:
        outcomes: List[ShardOutcome] = []
        failures: List[ShardFailure] = []
        for payload in payloads:
            try:
                outcomes.append(run_shard(payload, on_row))
            except (InjectedWorkerError, CellExecutionError, CellTimeout) as exc:
                failures.append((payload, exc))
        return outcomes, failures
