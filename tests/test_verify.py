"""Tests for local checkability (repro.matching.verify)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.core.adversary import run_adversary
from repro.core.propagation import node_load_of_output
from repro.engine.grid import make_algorithm
from repro.graphs.families import (
    cycle_graph,
    path_graph,
    random_loopy_tree,
    single_node_with_loops,
)
from repro.matching.fm import fm_from_node_outputs
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.verify import check_maximal_fm, verify_distributed
from repro.problems import MaximalFractionalMatching

F = Fraction


def outputs_for(g, weights_by_eid):
    """Helper: per-node colour-keyed outputs from per-edge weights."""
    out = {}
    for v in g.nodes():
        out[v] = {
            e.color: weights_by_eid.get(e.eid, F(0)) for e in g.incident_edges(v)
        }
    return out


class TestDistributedChecker:
    def test_accepts_valid_solution_in_one_round(self):
        g = path_graph(5)
        proposal = outputs_for(g, {e.eid: F(1, 2) for e in g.edges()})
        ok, verdicts, rounds = verify_distributed(g, proposal)
        assert ok
        assert rounds == 1  # PO-checkability: a single round suffices
        assert all(v.ok for v in verdicts.values())

    def test_rejects_uncovered_edge_locally(self):
        g = path_graph(3)
        proposal = outputs_for(g, {0: F(1, 2)})
        ok, verdicts, _ = verify_distributed(g, proposal)
        assert not ok
        # the endpoints of the uncovered edge both reject maximality
        assert not verdicts[1].maximal or not verdicts[2].maximal

    def test_rejects_overload(self):
        g = cycle_graph(3)
        proposal = outputs_for(g, {e.eid: F(3, 4) for e in g.edges()})
        ok, verdicts, _ = verify_distributed(g, proposal)
        assert not ok
        assert any(not v.feasible for v in verdicts.values())

    def test_rejects_endpoint_disagreement(self):
        g = path_graph(2)
        proposal = {0: {1: F(1, 2)}, 1: {1: F(1, 3)}}
        ok, verdicts, _ = verify_distributed(g, proposal)
        assert not ok

    def test_loop_echo_checks_self_saturation(self):
        """For a loop, the checker's exchanged flag is the node's own: the
        loop edge is covered iff the node saturates itself (Figure 4 logic)."""
        g = single_node_with_loops(2)
        ok, _, _ = verify_distributed(g, {0: {1: F(1, 2), 2: F(1, 2)}})
        assert ok
        ok2, verdicts, _ = verify_distributed(g, {0: {1: F(1, 4), 2: F(1, 4)}})
        assert not ok2
        assert not verdicts[0].maximal

    def test_accepts_real_algorithm_output(self):
        g = random_loopy_tree(5, 1, seed=6)
        alg = greedy_color_algorithm()
        outputs = alg.run_on(g)
        ok, _, rounds = verify_distributed(g, outputs)
        assert ok and rounds == 1

    def test_rejects_colour_the_node_lacks(self):
        """The central check finds this inconsistent, and so must the node."""
        g = path_graph(2)
        ok, verdicts, _ = verify_distributed(g, {0: {1: F(1), 7: F(0)}, 1: {1: F(1)}})
        assert not ok
        assert not verdicts[0].feasible

    def test_rejects_missing_colour_without_raising(self):
        g = path_graph(2)
        ok, verdicts, _ = verify_distributed(g, {0: {}, 1: {1: F(1)}})
        assert not ok
        assert not verdicts[0].feasible
        assert not verdicts[1].feasible  # the neighbour sees the disagreement

    def test_rejects_node_without_entry_without_raising(self):
        g = path_graph(2)
        ok, verdicts, _ = verify_distributed(g, {1: {1: F(1)}})
        assert not ok
        assert not verdicts[0].feasible


class TestCentralChecker:
    def test_no_problems_on_valid(self):
        g = path_graph(5)
        fm = fm_from_node_outputs(g, outputs_for(g, {e.eid: F(1, 2) for e in g.edges()}))
        assert check_maximal_fm(fm) == []

    def test_reports_both_kinds(self):
        g = path_graph(3)
        fm = fm_from_node_outputs(g, outputs_for(g, {0: F(3, 2)}))
        problems = check_maximal_fm(fm)
        assert any("outside" in p for p in problems)
        assert any("saturated" in p for p in problems)


def perturbations(g, out, rng):
    """Five seeded ways to break ``out``, each on its own copy."""
    edge = rng.choice(g.edges())
    v = rng.choice(g.nodes())
    c = rng.choice(sorted(out[v], key=repr))
    kinds = ("bump", "zero", "negate", "add", "drop")
    cases = {kind: {u: dict(weights) for u, weights in out.items()} for kind in kinds}
    cases["bump"][v][c] += F(1, 7)  # at one end only
    for u in {edge.u, edge.v}:
        cases["zero"][u][edge.color] = F(0)
        cases["negate"][u][edge.color] *= -1
    cases["add"][v][max(g.colors()) + 1] = F(0)  # a colour v does not have
    del cases["drop"][v][c]
    return cases


class TestDistributedOracle:
    """The paper's 1-round checker (§2) is the oracle of the central check.

    Inputs: every G and H of every witness step of the greedy and proposal
    adversaries at Δ = 2–5 (40 graphs), each with its algorithm's output
    and five seeded perturbations of it (240 proposals).
    """

    @pytest.fixture(scope="class")
    def runs(self):
        runs = []
        for name in ("greedy", "proposal"):
            for delta in range(2, 6):
                algorithm = make_algorithm(name)
                for step in run_adversary(algorithm, delta).steps:
                    for side, g in (("G", step.graph_g), ("H", step.graph_h)):
                        label = f"{name}/d{delta}/s{step.index}/{side}"
                        runs.append((label, g, algorithm.run_on(g)))
        assert len(runs) == 40
        return runs

    def test_verdicts_agree(self, runs):
        rng = random.Random(5)
        cases = []
        for label, g, out in runs:
            cases.append((label, g, out))
            for kind, bad in perturbations(g, out, rng).items():
                cases.append((f"{label}/{kind}", g, bad))
        assert len(cases) == 240
        disagree = [
            label
            for label, g, out in cases
            if verify_distributed(g, out)[0]
            != (MaximalFractionalMatching().violations(g, out) == [])
        ]
        assert disagree == []

    def test_loads_are_the_raw_outputs_loads(self, runs):
        for label, g, out in runs:
            fm = fm_from_node_outputs(g, out)
            assert check_maximal_fm(fm) == [], label
            assert all(fm.loads[v] == node_load_of_output(g, out, v) for v in g.nodes()), label
