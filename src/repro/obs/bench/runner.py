"""Run declared scaling experiments with warmup/repeat medians.

Each experiment kind declared in :mod:`repro.obs.bench.suite` maps to a
runner function here.  Runners drive the *real* engine — serial sweeps for
Δ-scaling, a spawn pool for worker-scaling, a throwaway on-disk store for
cache-scaling — under a :class:`BenchContext` that times callables with the
warmup/repeat/median discipline, and return plain metric dicts plus a
self-time profile extracted from the sweep's merged trace document
(:func:`repro.obs.export.document_profile`).

Isolation: ``$REPRO_CACHE_DIR`` is stripped for the duration of a suite run
so an ambient shared cache cannot warm the timed sweeps, and every sweep
here runs with a memory-only canonical-form cache that sees only its own
entries (plus, for cache-scaling only, an experiment-private temporary
disk tier, whose entries the warm sweep finds in the process memory tier).

This module is a sanctioned wall-clock reader (``LintConfig.clock_modules``):
the timing clock is injected and defaults to :func:`time.perf_counter`, so
tests can run the whole suite under a fake clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..export import document_profile
from .suite import Suite, suite_named
from .trajectory import current_commit, make_row

__all__ = ["BenchContext", "RUNNERS", "run_experiment", "run_suite"]

_PROFILE_TOP = 10  # span-name rows kept per trajectory row


@dataclass
class BenchContext:
    """Timing harness handed to experiment runners.

    :meth:`time` runs ``fn`` ``warmup`` times untimed, then ``repeats``
    times timed, and returns ``(median_seconds, last_result)``;
    :meth:`time_once` is the single-shot primitive for experiments (like
    cold/warm cache pairs) that must control repetition themselves.

    ``engine_opts`` are extra ``run_sweep`` keyword arguments forwarded to
    every sweep a runner launches (``backend=``, ``cell_timeout=``, ...);
    runners that sweep an axis themselves drop the clashing key.  Empty by
    default, so unconfigured benches behave exactly as before.
    """

    repeats: int = 3
    warmup: int = 1
    clock: Callable[[], float] = time.perf_counter
    engine_opts: Dict[str, object] = field(default_factory=dict)

    def sweep_opts(self, *drop: str) -> Dict[str, object]:
        """The forwarded engine options, minus runner-owned axes."""
        return {k: v for k, v in self.engine_opts.items() if k not in drop}

    def time_once(self, fn: Callable[[], object]) -> Tuple[float, object]:
        t0 = self.clock()
        result = fn()
        return self.clock() - t0, result

    def time(self, fn: Callable[[], object]) -> Tuple[float, object]:
        for _ in range(self.warmup):
            fn()
        samples: List[float] = []
        result = None
        for _ in range(max(1, self.repeats)):
            elapsed, result = self.time_once(fn)
            samples.append(elapsed)
        return statistics.median(samples), result


def _rows_sha256(rows: List[dict]) -> str:
    """Checksum of a sweep's result rows — the byte-identity fingerprint."""
    payload = json.dumps(rows, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _refuted(rows: List[dict]) -> int:
    return sum(1 for row in rows if row.get("status") == "refuted")


def _round6(value: float) -> float:
    return round(float(value), 6)


def _run_delta_scaling(params: Dict, ctx: BenchContext) -> Tuple[Dict, List[dict]]:
    """Serial E1 sweep per Δ: wall time scaling plus determinism fingerprints."""
    from ...engine import GridSpec, run_sweep

    algorithms = tuple(params.get("algorithms", ("greedy", "proposal")))
    deltas = tuple(params["deltas"])
    metrics: Dict[str, object] = {}
    all_rows: List[dict] = []
    docs: List[dict] = []
    total_wall = 0.0
    hits = lookups = 0
    for delta in deltas:
        grid = GridSpec(algorithms=algorithms, deltas=(delta,))
        median, result = ctx.time(partial(run_sweep, grid, **ctx.sweep_opts()))
        metrics[f"wall_s_d{delta}"] = _round6(median)
        total_wall += median
        all_rows.extend(result.rows)
        docs.append(result.trace)
        hits += result.cache.hits
        lookups += result.cache.lookups
    metrics["wall_s"] = _round6(total_wall)
    metrics["cells"] = len(all_rows)
    metrics["refuted"] = _refuted(all_rows)
    metrics["rows_sha256"] = _rows_sha256(
        sorted(all_rows, key=lambda row: row.get("key", ""))
    )
    metrics["cache_hit_rate"] = _round6(hits / lookups if lookups else 0.0)
    metrics["rows_per_s"] = _round6(len(all_rows) / total_wall) if total_wall > 0 else None
    return metrics, document_profile(*docs)[:_PROFILE_TOP]


def _run_worker_scaling(params: Dict, ctx: BenchContext) -> Tuple[Dict, List[dict]]:
    """The same grid over increasing worker counts: byte-identity + speedup."""
    from ...engine import GridSpec, run_sweep

    grid = GridSpec(
        algorithms=tuple(params.get("algorithms", ("greedy", "proposal"))),
        deltas=tuple(params["deltas"]),
    )
    workers = tuple(params["workers"])
    metrics: Dict[str, object] = {}
    fingerprints: List[str] = []
    walls: Dict[int, float] = {}
    docs: List[dict] = []
    for count in workers:
        median, result = ctx.time(
            partial(run_sweep, grid, workers=count, **ctx.sweep_opts("workers"))
        )
        walls[count] = median
        label = "serial" if count <= 1 else f"w{count}"
        metrics[f"wall_s_{label}"] = _round6(median)
        fingerprints.append(_rows_sha256(result.rows))
        docs.append(result.trace)
        metrics["cells"] = len(result.rows)
    metrics["rows_match"] = int(len(set(fingerprints)) == 1)
    metrics["rows_sha256"] = fingerprints[0]
    serial = min(workers)
    widest = max(workers)
    if walls.get(widest):
        metrics["speedup"] = _round6(walls[serial] / walls[widest])
    return metrics, document_profile(*docs)[:_PROFILE_TOP]


def _run_cache_scaling(params: Dict, ctx: BenchContext) -> Tuple[Dict, List[dict]]:
    """Cold vs warm sweeps against a fresh disk tier: hit-rate scaling."""
    from ...engine import GridSpec, run_sweep

    grid = GridSpec(
        algorithms=tuple(params.get("algorithms", ("greedy", "proposal"))),
        deltas=tuple(params["deltas"]),
    )
    colds: List[float] = []
    warms: List[float] = []
    cold_result = warm_result = None
    # cold/warm pairs need a fresh disk tier per iteration: a plain
    # ctx.time() loop would leave every run after the first warm
    for iteration in range(ctx.warmup + max(1, ctx.repeats)):
        with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tier:
            opts = ctx.sweep_opts("cache_dir")
            cold_s, cold_result = ctx.time_once(
                partial(run_sweep, grid, cache_dir=tier, **opts)
            )
            warm_s, warm_result = ctx.time_once(
                partial(run_sweep, grid, cache_dir=tier, **opts)
            )
            if iteration >= ctx.warmup:
                colds.append(cold_s)
                warms.append(warm_s)
    wall_cold = statistics.median(colds)
    wall_warm = statistics.median(warms)
    metrics: Dict[str, object] = {
        "wall_s_cold": _round6(wall_cold),
        "wall_s_warm": _round6(wall_warm),
        "cold_hit_rate": _round6(cold_result.cache.hit_rate),
        "warm_hit_rate": _round6(warm_result.cache.hit_rate),
        "lookups": cold_result.cache.lookups,
        "cells": len(cold_result.rows),
        "rows_sha256": _rows_sha256(cold_result.rows),
    }
    if wall_warm > 0:
        metrics["warm_speedup"] = _round6(wall_cold / wall_warm)
    return metrics, document_profile(cold_result.trace, warm_result.trace)[:_PROFILE_TOP]


def _run_canonical_microbench(params: Dict, ctx: BenchContext) -> Tuple[Dict, List[dict]]:
    """Canonicalise every root of a fixed loopy-tree batch: the isolated
    hot path of every ball-isomorphism check, without the sweep around it.

    Each timed pass starts from a cold shape-plan cache (the sweep-scale
    benches measure the warm steady state; this one measures the build).
    A final untimed warm pass pins the plan cache's recognition rate.
    """
    from ...graphs.families import random_loopy_tree
    from ...graphs.isomorphism import canonical_form_of
    from ...graphs.memo import reset_memos
    from ...graphs.soa import plan_hit_count

    nodes = int(params.get("nodes", 24))
    loops = int(params.get("loops", 2))
    seeds = tuple(params.get("seeds", range(8)))
    graphs = [random_loopy_tree(nodes, loops, seed=seed) for seed in seeds]

    def canonicalise_batch() -> List[tuple]:
        reset_memos()
        return [canonical_form_of(g, v) for g in graphs for v in g.nodes()]

    median, forms = ctx.time(canonicalise_batch)
    # warm repeat on the plan cache the last timed pass left behind: every
    # root shape must now resolve without rebuilding its form
    before = plan_hit_count()
    warm_forms = [canonical_form_of(g, v) for g in graphs for v in g.nodes()]
    warm_hits = plan_hit_count() - before
    assert warm_forms == forms
    digest = hashlib.sha256(repr(forms).encode("utf-8")).hexdigest()
    metrics: Dict[str, object] = {
        "wall_s": _round6(median),
        "forms": len(forms),
        "forms_sha256": digest,
        "warm_plan_hit_rate": _round6(warm_hits / len(forms)) if forms else None,
        "forms_per_s": _round6(len(forms) / median) if median > 0 else None,
    }
    return metrics, []


#: experiment kind -> runner; suites reference kinds, never functions
RUNNERS: Dict[str, Callable[[Dict, BenchContext], Tuple[Dict, List[dict]]]] = {
    "delta-scaling": _run_delta_scaling,
    "worker-scaling": _run_worker_scaling,
    "cache-scaling": _run_cache_scaling,
    "canonical-microbench": _run_canonical_microbench,
}


def run_experiment(experiment, ctx: BenchContext) -> Tuple[Dict, List[dict]]:
    """Run one experiment declaration; returns ``(metrics, profile)``."""
    try:
        runner = RUNNERS[experiment.kind]
    except KeyError:
        raise ValueError(
            f"experiment {experiment.name!r} declares unknown kind "
            f"{experiment.kind!r}; registered: {', '.join(sorted(RUNNERS))}"
        ) from None
    return runner(dict(experiment.params), ctx)


def run_suite(
    suite: Union[str, Suite],
    *,
    repeats: int = 3,
    warmup: int = 1,
    clock: Optional[Callable[[], float]] = None,
    commit: Optional[str] = None,
    engine_opts: Optional[Dict[str, object]] = None,
) -> List[dict]:
    """Run every experiment of ``suite``; returns the trajectory rows.

    ``engine_opts`` forwards execution-control keywords (``backend=``,
    ``cell_timeout=``, ...) to every sweep the runners launch; see
    :class:`BenchContext`.  Rows are *not* persisted here — the CLI owns
    the append so ``--check`` and ``--dry-run`` can run without touching
    the committed history.
    """
    from ...engine.cache import ENV_CACHE_DIR

    if isinstance(suite, str):
        suite = suite_named(suite)
    ctx = BenchContext(
        repeats=repeats,
        warmup=warmup,
        clock=clock if clock is not None else time.perf_counter,
        engine_opts=dict(engine_opts) if engine_opts else {},
    )
    commit = commit if commit is not None else current_commit()
    # an ambient shared cache would warm the timed sweeps unpredictably
    ambient_cache = os.environ.pop(ENV_CACHE_DIR, None)
    rows: List[dict] = []
    try:
        for experiment in suite.experiments:
            metrics, profile = run_experiment(experiment, ctx)
            rows.append(
                make_row(
                    suite=suite.name,
                    experiment=experiment.name,
                    commit=commit,
                    metrics=metrics,
                    profile=[
                        {
                            "name": row["name"],
                            "calls": row["calls"],
                            "self": _round6(row["self"]),
                            "total": _round6(row["total"]),
                        }
                        for row in profile
                    ],
                )
            )
    finally:
        if ambient_cache is not None:
            os.environ[ENV_CACHE_DIR] = ambient_cache
    return rows
