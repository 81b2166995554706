"""Benchmark-suite plumbing: collect experiment rows, print and persist them.

Every benchmark records the quantities the corresponding paper artefact is
about (witness depths, round counts, approximation ratios, ...) through the
``record`` fixture; a terminal-summary hook prints one table per experiment
so that ``pytest benchmarks/ --benchmark-only`` reproduces the series the
paper reports alongside pytest-benchmark's timing table.  EXPERIMENTS.md
mirrors these tables.

At session end every experiment's rows are additionally persisted as a
``BENCH_<id>.json`` artifact (schema: ``repro.obs.export.
write_bench_artifact`` / docs/observability.md) in ``$REPRO_BENCH_DIR``
(default: the current directory) — **one file per experiment id, keys
sorted**, so an unchanged benchmark reproduces its committed artifact byte
for byte.  Each artifact carries the recorded series, the lint-cleanliness
header, and — when ``$REPRO_BENCH_TRACE`` is set — a hottest-spans profile
of the whole session captured with the ``repro.obs`` tracer.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

import pytest

_ROWS: Dict[str, List[dict]] = defaultdict(list)

_SRC = Path(__file__).resolve().parents[1] / "src"

#: session tracer (enabled via REPRO_BENCH_TRACE=1) and its uninstaller
_TRACER = None
_TRACER_GUARD = None


def _lint_summary() -> Optional[dict]:
    try:
        from repro.lint import lint_paths, summarize

        summary = summarize(lint_paths([_SRC]))
        return {k: summary[k] for k in ("clean", "total", "by_rule")}
    except Exception:  # never block a bench run on the linter
        return None


def pytest_report_header(config):
    """Record whether the tree was model-contract clean for this bench run.

    Every recorded experiment series should be attributable to a tree that
    honours the model contracts; this is ``repro lint --json`` inlined into
    the session header.
    """
    summary = _lint_summary()
    if summary is None:
        return ["repro lint: unavailable"]
    status = "contract-clean" if summary["clean"] else "CONTRACT VIOLATIONS"
    return [f"repro lint: {status} — {json.dumps(summary, sort_keys=True)}"]


def pytest_sessionstart(session):
    """Optionally capture a whole-session trace (REPRO_BENCH_TRACE=1)."""
    global _TRACER, _TRACER_GUARD
    if not os.environ.get("REPRO_BENCH_TRACE"):
        return
    try:
        from repro.obs import Tracer, use_tracer
    except Exception:
        return
    _TRACER = Tracer()
    _TRACER_GUARD = use_tracer(_TRACER)
    _TRACER_GUARD.__enter__()


@pytest.fixture
def record():
    """Record one result row for an experiment: ``record("E1", col=value, ...)``."""

    def _record(experiment: str, **row):
        _ROWS[experiment].append(row)

    return _record


@pytest.fixture
def engine_sweep():
    """Run a grid through :func:`repro.engine.run_sweep`, optionally parallel.

    The opt-in parallel path: ``REPRO_BENCH_WORKERS=N`` (N >= 2) shards the
    grid across a process pool AND replays it serially, asserting the two
    row sets serialise byte-identically — benches recorded from a parallel
    run are guaranteed to be the rows a serial run would have produced.
    Unset (or < 2), the sweep just runs in-process.

    ``REPRO_BENCH_FAULT_SEED=K`` additionally replays the sweep under a
    fault plan sampled from seed ``K`` (``FaultPlan.sample``; worker kills,
    shard truncation, cache damage — see docs/fault_injection.md) and
    asserts the recovered rows still serialise byte-identically, so bench
    runs can double as chaos runs.
    """
    from repro.engine import expand, run_sweep

    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "0"))
    fault_seed = os.environ.get("REPRO_BENCH_FAULT_SEED")

    def _sweep(grid, **kwargs):
        result = run_sweep(grid, workers=workers, **kwargs)
        reference = json.dumps(result.rows, sort_keys=True).encode()
        if workers >= 2:
            serial = run_sweep(grid, workers=0, **kwargs)
            serial_bytes = json.dumps(serial.rows, sort_keys=True).encode()
            assert reference == serial_bytes, (
                "parallel sweep rows diverge from the serial run"
            )
        if fault_seed is not None:
            from repro.engine import FaultPlan

            plan = FaultPlan.sample([c.key for c in expand(grid)], seed=int(fault_seed))
            faulted = run_sweep(grid, workers=workers, faults=plan, **kwargs)
            faulted_bytes = json.dumps(faulted.rows, sort_keys=True).encode()
            assert reference == faulted_bytes, (
                f"rows diverge under injected faults (seed {fault_seed})"
            )
        return result

    return _sweep


def _experiment_id(experiment: str) -> str:
    """Filename-safe id of an experiment: its first token (``E1``, ``E10``)."""
    token = experiment.split()[0] if experiment.split() else "misc"
    return re.sub(r"[^A-Za-z0-9_-]", "", token) or "misc"


def _write_artifacts(tr) -> None:
    global _TRACER, _TRACER_GUARD
    profile = None
    if _TRACER_GUARD is not None:
        _TRACER_GUARD.__exit__(None, None, None)
        _TRACER_GUARD = None
    if _TRACER is not None:
        from repro.obs import profile_rows

        profile = profile_rows(_TRACER)
    try:
        from repro.obs import write_bench_artifact
    except Exception as exc:
        tr.write_line(f"bench artifacts unavailable: {exc}")
        return
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR", "."))
    lint = _lint_summary()
    groups: Dict[str, List[dict]] = defaultdict(list)
    for experiment in sorted(_ROWS):
        groups[_experiment_id(experiment)].append(
            {"experiment": experiment, "rows": _ROWS[experiment]}
        )
    for experiment_id, series in sorted(groups.items()):
        path = write_bench_artifact(
            out_dir / f"BENCH_{experiment_id}.json",
            experiment_id,
            series,
            lint=lint,
            profile=profile,
        )
        tr.write_line(f"wrote {path}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ROWS:
        return
    tr = terminalreporter
    tr.section("reproduction experiment results")
    for line in pytest_report_header(config):
        tr.write_line(line)
    for experiment in sorted(_ROWS):
        rows = _ROWS[experiment]
        columns = list(dict.fromkeys(k for row in rows for k in row))
        widths = {
            c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in columns
        }
        tr.write_line("")
        tr.write_line(f"[{experiment}]")
        tr.write_line("  " + "  ".join(c.ljust(widths[c]) for c in columns))
        for row in rows:
            tr.write_line(
                "  " + "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
            )
    _write_artifacts(tr)
