"""Sweep execution backends.

The :class:`~repro.engine.executors.base.SweepExecutor` contract separates
*what a sweep means* (owned by :func:`repro.engine.run_sweep`: sharding,
the result store, progress, recovery policy) from *where shards run*
(owned by a backend).  ``workers`` picks one of the two shipped backends:

======== ============================================== ==========
name     where shards run                               selected by
======== ============================================== ==========
inline   this process, one shard after another          workers<2
process  a spawn-context ``ProcessPoolExecutor``        workers>=2
======== ============================================== ==========

Both drive the same shard runtime
(:mod:`repro.engine.executors.shard`), and both must pass the same
conformance suite: byte-identical rows vs the serial baseline, under every
fault kind.  ``docs/engine.md`` documents how to write a backend and pass
it to :func:`~repro.engine.run_sweep` as an instance.
"""

from .base import ExecutionOptions, SweepExecutor, as_executor
from .inline import InlineExecutor
from .process import ProcessExecutor
from .shard import run_shard, shard_cells, shard_payloads

__all__ = [
    "ExecutionOptions",
    "InlineExecutor",
    "ProcessExecutor",
    "SweepExecutor",
    "as_executor",
    "run_shard",
    "shard_cells",
    "shard_payloads",
]
