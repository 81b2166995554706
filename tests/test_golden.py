"""Golden values: the row and form checksums, and the hit-rate floors.

Each value is computed on a grid small enough for tier-1 and compared
exactly (checksums, counts) or against a floor (hit rates).  Each hit
rate starts from a cold shape-plan cache: the process-wide memos are
reset before it, so no earlier test warms it.  A change to any checksum
is a change to what the program computes, not noise: if it is intended,
re-pin the value here and say why in CHANGES.md.

* ``sweep.delta_scaling`` — the E1 rows (greedy-by-colour and proposal
  dynamics) for Δ = 3, 4 and 5, one serial sweep per Δ;
* ``cache.hit_scaling`` — the canonical-form cache's hit rate from a cold
  plan cache, then a repeat in the same process, which the run memo
  answers before any form is looked up;
* ``canonical.microbench`` — the SoA canonicaliser's forms over a fixed
  batch of loopy trees, and the shape-plan cache's recognition rate;
* ``canonical.order`` — the Appendix A order: a sorted ``T``-ball and the
  ordered cover words the PO <= OI and OI <= ID simulations hand to an
  OI-algorithm.  The row checksum cannot see this order, because both
  shipped OI machines ignore the order they are given;
* ``adversary.witness`` — the Section 4 construction itself, step by step,
  against both algorithms and against reverse-edge greedy, whose steps
  take side G.  A row records only the witness depth and verdict, so a
  change that picked another disagreeing colour, side or loop would keep
  every row.
* ``adversary.chain`` — the same through the po, oi and id simulation
  chains at Δ = 2–4: every step, both refutations and the nine rows;
* ``adversary.refutation`` — what the checks say when an algorithm fails:
  the rows of a sweep that refutes, and one ``checked_run`` message per
  verdict.  The E1 rows are never refuted, so they pin no failure's words.

Worker-count byte identity (rows under ``workers=2`` equal the serial
rows) is ``tests/test_executors.py::TestByteIdentity``.  Wall time is
measured at reference scale by ``refbench/`` (``refbench/README.md``).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from repro import api
from repro.core.adversary import checked_run, run_adversary
from repro.core.canonical_order import tree_ball, tree_sort_key
from repro.core.sim_po_oi import cover_words, ordered_cover_nodes
from repro.core.theorem import chain_from_name
from repro.core.witness import AlgorithmFailure
from repro.engine import CanonicalFormCache, GridSpec, run_sweep
from repro.engine.grid import make_algorithm
from repro.graphs.cover import universal_cover_po
from repro.graphs.families import (
    cycle_graph,
    path_graph,
    random_loopy_tree,
    random_regular_graph,
    single_node_with_loops,
)
from repro.graphs.isomorphism import canonical_form_of, use_canonical_cache
from repro.graphs.memo import reset_memos
from repro.graphs.neighborhoods import ball
from repro.graphs.ports import po_double_from_ec
from repro.local.algorithm import ECWeightAlgorithm
from repro.matching.naive import DegreeSplitFM, SelfishFM, ZeroFM
from tests.reverse_greedy import ReverseEdgeGreedy

ALGORITHMS = ("greedy", "proposal")

#: hit rates may fall this far below today's value before a test fails
HIT_RATE_SLACK = 0.02


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_sha256(rows) -> str:
    """The byte-identity fingerprint of a sweep's result rows."""
    return sha256(json.dumps(list(rows), sort_keys=True, default=str))


def run_memo_counts(trace: dict) -> dict:
    """The ``adversary.run_memo`` counts of a trace document, by outcome."""
    return {
        row["labels"]["outcome"]: row["value"]
        for row in trace["metrics"]["counters"]
        if row["name"] == "adversary.run_memo"
    }


class TestDeltaScaling:
    """The E1 grid for Δ = 3, 4, 5: the rows that witness Theorem 1."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        reset_memos()
        return [
            run_sweep(GridSpec(algorithms=ALGORITHMS, deltas=(delta,)))
            for delta in (3, 4, 5)
        ]

    def test_rows_sha256(self, sweeps):
        rows = sorted(
            (row for sweep in sweeps for row in sweep.rows),
            key=lambda row: row.get("key", ""),
        )
        assert len(rows) == 6
        assert not [row["key"] for row in rows if row.get("status") == "refuted"]
        assert rows_sha256(rows) == (
            "e9beaacf4714dded2829e5fea942e6422bd5299b2de53c3e78ebbaa7732e37a1"
        )

    def test_cache_hit_rate_floor(self, sweeps):
        hits = sum(sweep.cache.hits for sweep in sweeps)
        lookups = sum(sweep.cache.lookups for sweep in sweeps)
        assert hits / lookups >= 29 / 36 - HIT_RATE_SLACK


class TestCacheHitScaling:
    """Two sweeps over Δ = 3, 4 in one process, from a cold plan cache."""

    def test_cold_and_warm_hit_rate_floors(self):
        grid = GridSpec(algorithms=ALGORITHMS, deltas=(3, 4))
        reset_memos()
        cold = run_sweep(grid)
        warm = run_sweep(grid)
        assert cold.cache.hit_rate >= 16 / 20 - HIT_RATE_SLACK
        # the run memo answers every warm cell before any form is looked up
        assert warm.cache.lookups == 0
        assert run_memo_counts(warm.trace) == {"hit": 4}
        assert rows_sha256(warm.rows) == rows_sha256(cold.rows)


class TestCanonicalMicrobench:
    """Every root of eight loopy trees of 24 nodes, through the SoA kernel."""

    def test_forms_sha256_and_warm_plan_hit_rate(self):
        graphs = [random_loopy_tree(24, 2, seed=seed) for seed in range(8)]
        reset_memos()
        forms = [canonical_form_of(g, v) for g in graphs for v in g.nodes()]
        assert len(forms) == 192
        assert sha256(repr(forms)) == (
            "a1fee25de7010cd00a5c5c8e1cf1bbdb127960431296149b6175919a2e6c6400"
        )
        # a repeat must resolve every root shape from the plan cache
        cache = CanonicalFormCache()
        with use_canonical_cache(cache):
            assert [canonical_form_of(g, v) for g in graphs for v in g.nodes()] == forms
        assert cache.stats.hit_rate >= 1.0 - HIT_RATE_SLACK


class TestCanonicalOrder:
    """A radius-3 ball of the 3-generator tree and every radius-3 cover of
    three PO-doubled graphs, each listed in the homogeneous order."""

    def test_order_sha256(self):
        parts = [sorted(tree_ball(3, 3), key=tree_sort_key)]
        for g in (single_node_with_loops(2), cycle_graph(4), random_regular_graph(8, 3, seed=1)):
            d = po_double_from_ec(g)
            for v in d.nodes():
                cover = universal_cover_po(d, v, 3)
                words = cover_words(d, cover)
                parts.append([words[n] for n in ordered_cover_nodes(d, cover)])
        assert sum(map(len, parts)) == 1948
        assert sha256(repr(parts)) == (
            "fe2c5a670947f52de6b6dd4c7f9f6a76a4b983e28dbb16d887ce3328b5d655e1"
        )


class TestWitness:
    """Every step of the construction against both algorithms, Δ = 3–8.

    A step is hashed by what the paper defines, with no node label or edge
    id: the side, the colour, both weights, both graph sizes and the
    canonical form of the G-side witness ball.
    """

    def test_witness_sha256(self):
        steps = [
            (
                name, delta, step.index, step.side, repr(step.color),
                str(step.weight_g), str(step.weight_h),
                step.graph_g.num_nodes(), step.graph_h.num_nodes(),
                ball(step.graph_g, step.node_g, step.index).canonical_form(),
            )
            for name in ALGORITHMS
            for delta in range(3, 9)
            for step in run_adversary(make_algorithm(name), delta).steps
        ]
        assert len(steps) == 54
        assert sha256(repr(steps)) == (
            "ac3b3bfd0d52a347a4a3abf7bdb40f740af0c6224baa3678feca20eee9962688"
        )

    def test_side_g_witness_sha256(self):
        """The same hash over reverse-edge greedy, whose steps take side G
        (``tests/reverse_greedy.py``); no shipped algorithm does."""
        steps = [
            (
                delta, step.index, step.side, repr(step.color),
                str(step.weight_g), str(step.weight_h),
                step.graph_g.num_nodes(), step.graph_h.num_nodes(),
                ball(step.graph_g, step.node_g, step.index).canonical_form(),
            )
            for delta in range(3, 9)
            for step in run_adversary(ReverseEdgeGreedy(), delta).steps
        ]
        assert len(steps) == 27
        assert sha256(repr(steps)) == (
            "ff073043ae87d66462fdcbb05d8707c4c3417a436134e5661b87370edae38156"
        )


class TestChainWitness:
    """The construction through the po, oi and id simulation chains, Δ = 2–4.

    The chain rows record only depth and verdict, so a chain that changed a
    weight yet still gave a valid witness would keep every row.  Each step
    is hashed as in :class:`TestWitness`; the oi and id chains are refuted
    at Δ = 3, and those failures are hashed by their words.
    """

    CHAINS = ("po", "oi", "id")
    DELTAS = (2, 3, 4)

    def test_steps_and_refutations_sha256(self):
        steps, failures = [], []
        for chain in self.CHAINS:
            for delta in self.DELTAS:
                try:
                    witness = run_adversary(chain_from_name(chain, t=delta), delta)
                except AlgorithmFailure as failure:
                    failures.append((chain, delta, str(failure)))
                    continue
                steps += [
                    (
                        chain, delta, step.index, step.side, repr(step.color),
                        str(step.weight_g), str(step.weight_h),
                        step.graph_g.num_nodes(), step.graph_h.num_nodes(),
                        ball(step.graph_g, step.node_g, step.index).canonical_form(),
                    )
                    for step in witness.steps
                ]
        assert len(steps) == 14
        assert sha256(repr(steps)) == (
            "a4ce505ca8d79673ce3ecdf3ee5b1cd167ce6a141b9a98944381295a3e99afe1"
        )
        assert [(chain, delta) for chain, delta, _ in failures] == [("oi", 3), ("id", 3)]
        assert all("non-maximal FM (edge 2 uncovered)" in words for _, _, words in failures)
        assert sha256(repr(failures)) == (
            "608035bc92fbbecfcc4ab80d8ffafcaa02f326b7603049c233f2556a3d78e5ee"
        )

    def test_rows_sha256(self):
        reset_memos()
        rows = api.sweep(GridSpec(("proposal",), self.DELTAS, self.CHAINS, (0,))).rows
        assert len(rows) == 9
        assert sorted(row["key"] for row in rows if row["status"] == "refuted") == [
            "proposal/d3/id/s0", "proposal/d3/oi/s0"
        ]
        assert sha256(json.dumps(rows, sort_keys=True)) == (
            "8747d44ad35a4c03fee1a9e6f564daf131b69ec8ec85de527050d5fed02657f1"
        )


class Uniform(ECWeightAlgorithm):
    """One weight on every colour slot of every node."""

    def __init__(self, name, weight):
        self.name = name
        self.weight = weight

    def run_on(self, g):
        return {v: {c: self.weight for c in g.incident_colors(v)} for v in g.nodes()}


class Crash(ECWeightAlgorithm):
    name = "crash"

    def run_on(self, g):
        raise RuntimeError("boom")


class TestRefutation:
    """Every word of a failure: the refuted rows of a sweep, and the
    ``checked_run`` message of each verdict (crashed, inconsistent,
    infeasible, non-maximal and unsaturated)."""

    def test_refuted_rows_sha256(self):
        reset_memos()
        grid = GridSpec(("zero", "degree-split"), tuple(range(2, 9)), ("ec",), (0,))
        rows = api.sweep(grid).rows
        assert [row["key"] for row in rows if row["status"] != "refuted"] == [
            "degree-split/d2/ec/s0"
        ]
        assert len(rows) == 14
        assert sha256(json.dumps(rows, sort_keys=True)) == (
            "5e0b246c9f6041fc9db09e4d78f8a613d164f4d65b7ceafb8b2a71171e09644f"
        )

    def test_checked_run_messages_sha256(self):
        runs = [
            (ZeroFM(), single_node_with_loops(3), True),
            (SelfishFM(), path_graph(3), False),
            (DegreeSplitFM(), random_loopy_tree(5, 1, seed=2), True),
            (Uniform("overload", Fraction(3, 4)), path_graph(3), True),
            (Uniform("half", Fraction(1, 2)), path_graph(4), True),
            (Crash(), path_graph(2), True),
        ]
        failures = []
        for algorithm, g, require_saturation in runs:
            with pytest.raises(AlgorithmFailure) as failure:
                checked_run(algorithm, g, require_saturation=require_saturation)
            failures.append(f"{algorithm.name}: {failure.value}")
        assert sha256("\n".join(failures)) == (
            "c522cbed29f51bce1d8376dc85538b194fc60d5648dc465597c41c7b7ff98b76"
        )
