"""Tests for the PO <= OI simulation (repro.core.sim_po_oi, Section 5.3)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.canonical_order import compare_words
from repro.core.sim_po_oi import (
    OIAlgorithm,
    POFromOI,
    SymmetricOIAdapter,
    cover_words,
    po_algorithm_from_oi,
)
from repro.graphs.cover import universal_cover_po
from repro.graphs.families import cycle_graph, random_regular_graph, single_node_with_loops
from repro.graphs.ports import po_double_from_ec
from repro.matching.fm import fm_from_node_outputs, po_node_load
from repro.matching.proposal import ProposalFM
from repro.core.sim_ec_po import ECFromPO


class TestCoverWords:
    def test_words_are_reduced(self):
        d = po_double_from_ec(single_node_with_loops(2))
        cover = universal_cover_po(d, 0, 3)
        for label, word in cover_words(d, cover).items():
            for (c1, d1), (c2, d2) in zip(word, word[1:]):
                assert not (c1 == c2 and d1 == -d2)

    def test_words_injective(self):
        d = po_double_from_ec(cycle_graph(4))
        cover = universal_cover_po(d, 0, 3)
        words = cover_words(d, cover)
        assert len(set(words.values())) == len(words)

    def test_root_is_identity(self):
        d = po_double_from_ec(cycle_graph(4))
        cover = universal_cover_po(d, 0, 2)
        assert cover_words(d, cover)[cover.root] == ()


class TestOrderedEvaluation:
    def test_ordered_nodes_strictly_increase(self):
        """The OI-algorithm gets every cover node, ascending in the oracle order."""

        class SpyOI(OIAlgorithm):
            t = 3
            name = "spy"

            def __init__(self):
                self.seen = []

            def evaluate(self, tree, root, ordered_nodes):
                self.seen.append((tree, ordered_nodes))
                return {
                    ("out" if kind == "out" else "in", c): Fraction(0)
                    for (kind, c) in _root_slots(tree, root)
                }

        spy = SpyOI()
        d = po_double_from_ec(cycle_graph(4))
        POFromOI(spy).run_on(d)
        assert len(spy.seen) == 4
        for v, (tree, ordered) in zip(d.nodes(), spy.seen):
            words = cover_words(d, universal_cover_po(d, v, spy.t))
            assert len(ordered) == tree.num_nodes()
            assert sorted(ordered) == sorted(words)
            for a, b in zip(ordered, ordered[1:]):
                assert compare_words(words[a], words[b]) == -1

    def test_symmetric_adapter_produces_maximal_fm(self):
        """The full PO <= OI pipeline with an order-oblivious machine."""
        oi = SymmetricOIAdapter(ProposalFM("PO"), t=3)
        po_alg = po_algorithm_from_oi(oi)
        for g in (cycle_graph(6), random_regular_graph(8, 3, seed=1)):
            d = po_double_from_ec(g)
            out = po_alg.run_on(d)
            for v in d.nodes():
                weights = {}
                for slot, w in out[v].items():
                    kind, c = slot
                    arc = d.out_edge(v, c) if kind == "out" else d.in_edge(v, c)
                    weights[arc.eid] = w
                assert po_node_load(d, weights, v) <= 1

    def test_end_to_end_through_ec(self):
        """EC <= PO <= OI on regular inputs yields verified maximal FMs."""
        oi = SymmetricOIAdapter(ProposalFM("PO"), t=3)
        ec = ECFromPO(po_algorithm_from_oi(oi))
        g = cycle_graph(8)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_feasible() and fm.is_maximal()

    def test_loopy_base_graph(self):
        oi = SymmetricOIAdapter(ProposalFM("PO"), t=2)
        ec = ECFromPO(po_algorithm_from_oi(oi))
        g = single_node_with_loops(3)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_fully_saturated()


class TestRunTimePreservation:
    def test_reported_rounds_equal_t(self):
        oi = SymmetricOIAdapter(ProposalFM("PO"), t=3)
        po_alg = POFromOI(oi)
        d = po_double_from_ec(cycle_graph(4))
        po_alg.run_on(d)
        assert po_alg.rounds_used(d) == 3

    def test_t_zero_rejected_for_state_machines(self):
        with pytest.raises(ValueError):
            SymmetricOIAdapter(ProposalFM("PO"), t=0)


def _root_slots(tree, root):
    slots = []
    for e in tree.out_edges(root):
        slots.append(("out", e.color))
    for e in tree.in_edges(root):
        slots.append(("in", e.color))
    return slots


class TestChainWithDoubling:
    def test_doubling_through_oi_chain(self):
        """A second, independent algorithm through PO <= OI: the doubling
        dynamics (needs the delta global) produces feasible outputs whose
        every edge has a half-loaded endpoint."""
        from fractions import Fraction
        from repro.matching.kuhn_approx import DoublingFM
        from repro.matching.fm import fm_from_node_outputs

        oi = SymmetricOIAdapter(
            DoublingFM("PO"),
            t=3,
            globals_factory=lambda tree: {"delta": max(tree.max_degree(), 1)},
        )
        ec = ECFromPO(po_algorithm_from_oi(oi))
        g = cycle_graph(6)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_feasible()
        half = Fraction(1, 2)
        for e in g.edges():
            assert fm.node_load(e.u) >= half or fm.node_load(e.v) >= half
