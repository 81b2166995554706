"""Run every workload several times and report each metric's spread.

    python3 refbench/suite.py [--runs 10] [--first-seed 1] [--against OTHER]

Each workload in ``BENCHMARK.json`` in turn gets ``--runs`` runs on this
checkout (side A), each one ``run.py --seconds <run_seconds>`` invocation
with its own seed (``--first-seed``, ``--first-seed + 1``, ...), as the
benchmark's contract measures a workload: ten seeds in a row.  For every
workload and end-to-end metric the report gives the median, quartiles and
sample count over the runs, and the spread (interquartile distance over
median) against the metric's bound.  Each run's line ends with the host
probe and how long the run took.

``--against OTHER`` measures a second checkout (side B) with this same
benchmark code and interleaves the two run by run, A B B A A B ...,
because on a shared host the machine's speed drifts over minutes by more
than any usable bound; one whole set after the other would measure the
drift.  It then reports, per metric, how far B's median is from A's.

Exits 1 when any run fails a correctness check, when any spread exceeds
its bound, or when B's median is worse than A's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness.stats import shift, summarize  # noqa: E402

RUN_TIMEOUT = 200


def load_config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` invocation; its result line, or a failed stand-in."""
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0", "--root", root,
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT, cwd=root)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": "timed out", "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": proc.stderr[-500:], "metrics": {}}
    if proc.returncode != 0:
        result["correct"] = False
    # the host probe is printed in run.py's table, not in its result line
    calib = [line.split()[2] for line in lines if line.startswith("harness.calib_s ")]
    result["calib"] = calib[0] if calib else "?"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", default=None, help="checkout B, interleaved with this one")
    args = parser.parse_args(argv)

    config = load_config()
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    sides = {"A": ROOT}
    if args.against:
        sides["B"] = os.path.abspath(args.against)

    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {side: {} for side in sides} for w in workloads
    }
    ok = True
    began = time.monotonic()
    for workload in workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                start = time.monotonic()
                result = one_run(sides[side], workload, seed, seconds)
                took = time.monotonic() - start
                status = "ok" if result.get("correct") else f"FAILED {result.get('error', '')}".strip()
                ok &= bool(result.get("correct"))
                brief = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(
                    f"run {i + 1} {workload} {side} seed={seed}: {status} {brief} "
                    f"calib={result.get('calib')} took={took:.1f}s",
                    flush=True,
                )
                for name, metric in result["metrics"].items():
                    values[workload][side].setdefault(name, []).append(metric["value"])
    print(f"{args.runs * len(workloads) * len(sides)} runs in {time.monotonic() - began:.0f} s")

    print()
    header = f"{'workload':<10} {'metric':<12} {'side':<4} {'unit':<5} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3} {'spread':>7} {'bound':>6}"
    print(header)
    for workload in workloads:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            measured = []
            for side in sides:
                sample = values[workload][side].get(name)
                if not sample:
                    ok = False
                    print(f"{workload:<10} {name:<12} {side:<4} no values")
                    continue
                s = summarize(sample)
                measured.append(side)
                flag = ""
                if s.spread > bound:
                    ok, flag = False, "  SPREAD"
                print(
                    f"{workload:<10} {name:<12} {side:<4} {metric['unit']:<5} {s.median:>10.4g} "
                    f"{s.q1:>10.4g} {s.q3:>10.4g} {s.n:>3} {s.spread:>7.3f} {bound:>6}{flag}"
                )
            if len(measured) == 2:
                moved = shift(values[workload]["A"][name], values[workload]["B"][name])
                worse = moved if metric["better"] == "lower" else -moved
                verdict = "WORSE" if worse > bound else "within bound"
                ok &= worse <= bound
                print(f"{workload:<10} {name:<12} B vs A: {moved:+.3f} ({verdict})")
    print("suite:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
