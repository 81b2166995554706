"""Run one workload of the repository benchmark and print its metrics.

    python3 refbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program under test is that
checkout's ``src/repro`` (``--root`` points elsewhere, which is how
``suite.py`` measures two checkouts with one copy of the benchmark).

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics.  A table of every metric with its median, quartiles
and sample count comes first; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from typing import Dict, List

from harness import batch, service
from harness.proc import BENCH_DIR, Context, build, program_present
from harness.stats import BEYOND, beyond, quantile, summarize
from harness.workloads import WORKLOADS, BatchWorkload

#: end-to-end metrics reported as a percentile of their samples (the rest: median)
PERCENTILE = {"job_p50_s": 0.5, "job_p90_s": 0.9}


def load_config() -> dict:
    """``BENCHMARK.json``: which metrics a run reports, in what order, in what unit."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _table(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows)


def _stats_row(name: str, unit: str, value: float, values: List[float], note: str = "") -> List[str]:
    s = summarize(values)
    return [name, unit, f"{value:.6g}", f"{s.median:.6g}", f"{s.q1:.6g}", f"{s.q3:.6g}", str(s.n), note]


def end_to_end_report(samples: Dict[str, List[float]], config: dict):
    """``(metrics, table)``: each metric's value plus its sample's order statistics."""
    metrics = {}
    rows = [["metric", "unit", "value", "median", "q1", "q3", "n", "note"]]
    for metric in config["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        values = samples[name]
        q = PERCENTILE.get(name)
        value = quantile(values, q) if q is not None else statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if q is not None and beyond(len(values), q) < BEYOND:
            note = f"only {beyond(len(values), q)} samples beyond p{q * 100:g}"
        rows.append(_stats_row(name, unit, value, values, note))
    calib = samples["harness.calib_s"]
    rows.append(_stats_row("harness.calib_s", "s", statistics.median(calib), calib, "host probe"))
    return metrics, _table(rows)


def per_layer_report(values: Dict[str, float], config: dict):
    metrics = {}
    rows = [["metric", "unit", "value"]]
    for metric in config["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        rows.append([name, unit, f"{values[name]:.6g}"])
    return metrics, _table(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.path.dirname(BENCH_DIR), help="checkout whose src/repro is measured")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if not program_present(root):
        print(f"refbench: no program at {os.path.join(root, 'src', 'repro')}", file=sys.stderr)
        return 2
    config = load_config()
    workload = WORKLOADS[args.workload]
    label = f"trace-{workload.name}" if args.trace else f"{workload.name}-s{args.seed}-{os.getpid()}"
    ctx = Context.create(root, label)
    try:
        build(ctx)
        module = batch if isinstance(workload, BatchWorkload) else service
        if args.trace:
            run, values = module.per_layer(ctx, workload, args.seed, args.seconds)
            metrics, table = per_layer_report(values, config)
        else:
            run, samples = module.end_to_end(ctx, workload, args.seed, args.seconds)
            metrics, table = end_to_end_report(samples, config)
    finally:
        if not args.trace:
            ctx.cleanup()
        else:
            # keep the traced run's spans for inspection, drop the bulky stores
            for entry in os.listdir(ctx.work):
                if not entry.endswith((".spans.json", ".workers")):
                    path = os.path.join(ctx.work, entry)
                    shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    correct = run.failed == 0 and not run.problems
    unit = "jobs" if workload.name == "service" else "cells"
    print(f"refbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(table)
    print(f"{run.attempted} {unit} attempted, {run.failed} failed")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
