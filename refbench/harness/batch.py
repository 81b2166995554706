"""Batch workloads: ``repro.api.sweep`` in a fresh interpreter per sample."""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import List

from . import check, layers, spans
from .proc import SETUP_SAMPLES, Context, bench_script, calibrate, run_child
from .stats import quantile
from .workloads import BatchWorkload


def _child(ctx: Context, tag: str, spec: dict) -> dict:
    spec = dict(spec, result=ctx.path(f"{tag}.result.json"))
    spec_path = ctx.path(f"{tag}.spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    launched = time.monotonic()
    run_child([bench_script("sweep_child.py"), spec_path], ctx)
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - launched
    return result


class BatchRun:
    """Samples of one batch workload, checked as they arrive."""

    def __init__(self, ctx: Context, workload: BatchWorkload, seed: int):
        self.ctx = ctx
        self.workload = workload
        self.grid = workload.grid(seed)
        self.seeds = workload.seeds(seed)
        self.expected = check.load_reference()["batch"][workload.name]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.calibs: List[float] = []
        self._count = 0

    def sample(self, trace: bool = False) -> dict:
        self._count += 1
        tag = f"s{self._count}"
        self.calibs.append(calibrate())
        spec = {
            "grid": self.grid,
            "workers": self.workload.workers,
            "out": self.ctx.path(f"{tag}.store"),
            "trace": trace,
            "spans": self.ctx.path(f"{tag}.spans.json"),
            "worker_spans": self.ctx.path(f"{tag}.workers"),
        }
        result = _child(self.ctx, tag, spec)
        result["spans_path"] = spec["spans"]
        result["worker_spans"] = spec["worker_spans"]
        verdict = check.check_batch(result["rows"], self.seeds, self.workload.cells, self.expected)
        self.attempted += self.workload.cells
        self.failed += verdict["failed"]
        self.problems += verdict["problems"]
        return result

    def setup_probe(self) -> float:
        self._count += 1
        return _child(self.ctx, f"p{self._count}", {"probe": True})["setup_s"]


def end_to_end(ctx: Context, workload: BatchWorkload, seed: int, seconds: float):
    """About ``seconds`` of sweeps; returns ``(run, samples by metric)``."""
    run = BatchRun(ctx, workload, seed)
    results = [run.sample() for _ in range(workload.samples(seconds))]
    walls = [r["wall_s"] for r in results]
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_probe())
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        # one job is one sweep call; two or three per run is far from ten
        # beyond p90, which the printed sample count makes plain
        "job_p50_s": [quantile(walls, 0.5)],
        "job_p90_s": [quantile(walls, 0.9)],
        "harness.calib_s": run.calibs,
    }
    return run, samples


def per_layer(ctx: Context, workload: BatchWorkload, seed: int, seconds: float):
    """One untraced and one traced sweep, however long they take; returns
    ``(run, metrics)``."""
    run = BatchRun(ctx, workload, seed)
    plain = run.sample()
    traced = run.sample(trace=True)
    if traced["missing"]:
        print(f"not wrapped, absent from this program: {', '.join(traced['missing'])}", file=sys.stderr)
    recorded = spans.load(traced["spans_path"])
    table = spans.by_name(recorded)
    # pool workers wrapped the layers too (see sweep_child.py); their span
    # ids are their own, so each process is tabled on its own and added up
    workers = traced["worker_spans"]
    for entry in sorted(os.listdir(workers)):
        spans.add_table(table, spans.by_name(spans.load(os.path.join(workers, entry))))
    document = traced["trace"]
    metrics = layers.span_metrics(table)
    metrics.update(layers.import_profile(ctx, "import repro"))
    rounds = [s.duration for s in recorded if s.name == "engine.executors.run_round"]
    cache = traced["cache"]
    metrics.update(
        {
            "graphs.soa.plan_hit_ratio": layers.plan_hit_ratio(cache),
            "core.adversary.run_memo_hit_ratio": layers.run_memo_hit_ratio([document]),
            "engine.executors.dispatch_s": sum(rounds) - layers.longest_span(document, "engine.shard")
            if rounds
            else 0.0,
            "engine.cache.hit_ratio": cache["hit_rate"],
            "engine.cache.disk_hits": cache["disk_hits"],
            "engine.cache.shared_hits": cache["shared_hits"],
            "service.http.request_p50_s": 0.0,
            "service.queue_wait_p90_s": 0.0,
            "service.run_p50_s": 0.0,
            "service.run_p90_s": 0.0,
            "service.rejected": 0,
            "harness.calib_s": statistics.median(run.calibs),
            "harness.trace_overhead_ratio": traced["wall_s"] / plain["wall_s"],
            "harness.unattributed_s": spans.unattributed(recorded, traced["start"], traced["end"]),
        }
    )
    return run, metrics
