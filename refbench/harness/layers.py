"""The program's layers as the benchmark sees them, and their metrics.

``TARGETS`` lists the public functions the traced run wraps, each under
the name of the per-layer metric it feeds.  Several functions may feed one
name: ``matching.fm.verify`` is the FM built from node outputs plus its
feasibility and maximality checks.  The executor backends are found at
run time (:func:`executor_targets`), so a backend that a later version
adds or deletes needs no edit here.

Per-layer metrics come from three sources, always the program's public
surface: spans recorded by the wrappers (in the sweep process, its pool
workers, or the server), counters the program already returns
(``CacheStats`` and the metrics in a sweep's trace document), and
``python -X importtime`` for start-up.  Their names, units and
directions are declared once, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from . import spans as spanlib

TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("graphs.lifts.unfold_loop", "repro.graphs.lifts", "unfold_loop"),
    ("graphs.lifts.mix", "repro.graphs.lifts", "mix"),
    ("graphs.neighborhoods.ball", "repro.graphs.neighborhoods", "ball"),
    ("graphs.soa.snapshot_of", "repro.graphs.soa", "snapshot_of"),
    ("graphs.isomorphism.balls_isomorphic", "repro.graphs.isomorphism", "balls_isomorphic"),
    ("graphs.cover.universal_cover_po", "repro.graphs.cover", "universal_cover_po"),
    ("local.runtime.run", "repro.local.runtime", "run"),
    ("local.runtime.run_rounds", "repro.local.runtime", "run_rounds"),
    ("matching.fm.verify", "repro.matching.fm", "fm_from_node_outputs"),
    ("matching.fm.verify", "repro.matching.fm", "FractionalMatching.feasibility_violations"),
    ("matching.fm.verify", "repro.matching.fm", "FractionalMatching.maximality_violations"),
    ("core.adversary.run_adversary", "repro.core.adversary", "run_adversary"),
    ("core.adversary.checked_run", "repro.core.adversary", "checked_run"),
    ("core.propagation.disagreement_walk", "repro.core.propagation", "disagreement_walk"),
    ("core.saturation.unsaturated_nodes", "repro.core.saturation", "unsaturated_nodes"),
    ("core.sim_ec_po.run_on", "repro.core.sim_ec_po", "ECFromPO.run_on"),
    ("core.sim_po_oi.run_on", "repro.core.sim_po_oi", "POFromOI.run_on"),
    ("core.sim_oi_id.evaluate", "repro.core.sim_oi_id", "OIFromID.evaluate"),
    ("engine.pool.run_sweep", "repro.engine.pool", "run_sweep"),
    ("engine.grid.run_cell", "repro.engine.grid", "run_cell"),
    ("engine.cache.canonical_form", "repro.engine.cache", "CanonicalFormCache.canonical_form"),
    ("engine.store.append", "repro.engine.store", "ResultStore.append"),
    ("engine.store.write_summary", "repro.engine.store", "ResultStore.write_summary"),
    ("obs.export.trace_document", "repro.obs.export", "trace_document"),
    ("obs.export.merge_trace_documents", "repro.obs.export", "merge_trace_documents"),
    ("obs.progress.update", "repro.obs.progress", "ProgressEmitter.update"),
    ("service.jobs.submit", "repro.service.jobs", "SweepService.submit"),
    ("service.jobs.run_job", "repro.service.jobs", "SweepService._run_job"),
)

#: span names reported with both ``.calls`` and ``.self_s``
CALLS_AND_SELF = (
    "graphs.lifts.unfold_loop",
    "graphs.lifts.mix",
    "graphs.neighborhoods.ball",
    "graphs.isomorphism.balls_isomorphic",
    "local.runtime.run",
    "local.runtime.run_rounds",
    "core.adversary.checked_run",
    "engine.executors.run_round",
    "engine.cache.canonical_form",
    "engine.store.append",
)
#: span names reported with ``.self_s`` only
SELF_ONLY = (
    "graphs.soa.snapshot_of",
    "graphs.cover.universal_cover_po",
    "matching.fm.verify",
    "core.adversary.run_adversary",
    "core.propagation.disagreement_walk",
    "core.saturation.unsaturated_nodes",
    "core.sim_ec_po.run_on",
    "core.sim_po_oi.run_on",
    "core.sim_oi_id.evaluate",
    "engine.pool.run_sweep",
    "engine.store.write_summary",
    "obs.export.trace_document",
    "obs.export.merge_trace_documents",
    "obs.progress.update",
)
#: span names reported with ``.calls`` only
CALLS_ONLY = ("engine.grid.run_cell",)

#: the subpackages whose import time ``setup.import.<name>_s`` reports
SUBPACKAGES = ("graphs", "local", "matching", "core", "engine", "obs", "service")


def executor_targets() -> List[Tuple[str, str, str]]:
    """``run_round`` of every executor backend this version of the program has."""
    import repro.engine.executors as executors  # noqa: F401 - loads every backend
    from repro.engine.executors.base import SweepExecutor

    found, todo = [], list(SweepExecutor.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "run_round" in cls.__dict__:
            found.append(("engine.executors.run_round", cls.__module__, f"{cls.__qualname__}.run_round"))
    return sorted(found)


def install(recorder: spanlib.Recorder) -> List[str]:
    """Wrap every layer target; returns the ones this program lacks."""
    import repro.api  # noqa: F401 - load the whole batch path before patching
    import repro.service  # noqa: F401

    return spanlib.install(
        recorder,
        list(TARGETS) + executor_targets(),
        run_of={"SweepService._run_job": lambda service, job: job.id},
        run_of_result={"SweepService.submit": lambda job: job.id},
    )


def span_metrics(table: Mapping[str, Mapping[str, float]]) -> Dict[str, float]:
    """``calls``/``self_s`` metrics from a :func:`spans.by_name` table.

    A layer with no span in the table ran zero times on this workload.
    """
    out: Dict[str, float] = {}
    for stem in CALLS_AND_SELF + SELF_ONLY + CALLS_ONLY:
        row = table.get(stem, {"calls": 0, "self_s": 0.0})
        if stem not in SELF_ONLY:
            out[f"{stem}.calls"] = row["calls"]
        if stem not in CALLS_ONLY:
            out[f"{stem}.self_s"] = row["self_s"]
    return out


def _walk(nodes: Iterable[dict]):
    for node in nodes:
        yield node
        yield from _walk(node.get("children", ()))


def longest_span(document: Mapping, name: str) -> float:
    """Duration of the longest span called ``name`` in a trace document."""
    return max(
        (float(n.get("duration", 0.0)) for n in _walk(document.get("spans", ())) if n.get("name") == name),
        default=0.0,
    )


def counter_total(document: Mapping, name: str, **labels) -> float:
    """Sum of a trace document's counters named ``name`` matching ``labels``."""
    total = 0.0
    for row in document.get("metrics", {}).get("counters", ()):
        if row.get("name") != name:
            continue
        row_labels = row.get("labels", {})
        if all(str(row_labels.get(k)) == str(v) for k, v in labels.items()):
            total += row.get("value", 0)
    return total


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def plan_hit_ratio(cache: Mapping[str, float]) -> float:
    """Share of canonical-form cache misses the SoA shape-plan cache answered.

    ``cache`` is a ``CacheStats.as_dict()`` (or a sum of them): the same
    source on every workload, sweep process and pool workers alike.
    """
    return ratio(cache["plan_hits"], cache["misses"])


def run_memo_hit_ratio(documents: Iterable[Mapping]) -> float:
    """Share of ``checked_run`` memo probes that hit, over trace documents."""
    hits = misses = 0.0
    for document in documents:
        hits += counter_total(document, "adversary.run_memo", outcome="hit")
        misses += counter_total(document, "adversary.run_memo", outcome="miss")
    return ratio(hits, hits + misses)


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)\s*$")


def import_times(stderr: str) -> Dict[str, float]:
    """Seconds of start-up spent on behalf of each ``repro`` subpackage.

    Parses ``python -X importtime`` output (post-order, indentation is
    depth).  Every module's self time is charged to the innermost
    ``repro.<sub>`` module that imported it, so third-party modules count
    against the subpackage that pulled them in (``scipy.optimize`` against
    ``matching``).  Time outside any subpackage is not charged.
    """
    records = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            self_us, _cumulative, indent, name = match.groups()
            records.append((len(indent), name, int(self_us)))
    # rebuild the import tree from post-order: a record adopts the open
    # deeper records that precede it
    stack: List[Tuple[int, Tuple[str, int, list]]] = []
    for depth, name, self_us in records:
        node = (name, self_us, [])
        while stack and stack[-1][0] > depth:
            node[2].insert(0, stack.pop()[1])
        stack.append((depth, node))
    tree = [node for _, node in stack]

    charged = {sub: 0 for sub in SUBPACKAGES}

    def visit(node, owner: Optional[str]) -> None:
        name, self_us, children = node
        parts = name.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            owner = parts[1]
        if owner in charged:
            charged[owner] += self_us
        for child in children:
            visit(child, owner)

    for root in tree:
        visit(root, None)
    return {f"setup.import.{sub}_s": us / 1e6 for sub, us in charged.items()}


def import_profile(ctx, statement: str) -> Dict[str, float]:
    """Median per-subpackage import time of ``statement`` over three
    ``python -X importtime`` runs."""
    from .proc import run_child

    profiles = [
        import_times(run_child(["-X", "importtime", "-c", statement], ctx).stderr)
        for _ in range(3)
    ]
    return {key: statistics.median(p[key] for p in profiles) for key in profiles[0]}
