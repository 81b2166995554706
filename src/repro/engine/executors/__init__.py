"""Pluggable sweep execution backends.

The :class:`~repro.engine.executors.base.SweepExecutor` contract separates
*what a sweep means* (owned by :func:`repro.engine.run_sweep`: sharding,
the result store, progress, recovery policy) from *where shards run*
(owned by a backend).  Shipped backends:

======== ============================================== ==================
name     where shards run                               selects with
======== ============================================== ==================
inline   this process, one shard after another          default, workers<2
process  a spawn-context ``ProcessPoolExecutor``        default, workers>=2
socket   shard servers over JSON/socket framing         ``backend="socket"``
======== ============================================== ==================

All of them drive the same shard runtime
(:mod:`repro.engine.executors.shard`), and all of them must pass the same
conformance suite: byte-identical rows vs the serial baseline, under every
fault kind.  ``docs/engine.md`` documents how to write a new backend.
"""

from .base import BACKENDS, ExecutionOptions, SweepExecutor, as_executor
from .inline import InlineExecutor
from .process import ProcessExecutor
from .shard import run_shard, shard_cells, shard_payloads
from .sockets import ShardServer, SocketExecutor, parse_hosts

__all__ = [
    "BACKENDS",
    "ExecutionOptions",
    "InlineExecutor",
    "ProcessExecutor",
    "ShardServer",
    "SocketExecutor",
    "SweepExecutor",
    "as_executor",
    "parse_hosts",
    "run_shard",
    "shard_cells",
    "shard_payloads",
]
