"""Tests for the fractional matching datatype (repro.matching.fm)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.graphs.families import path_graph, single_node_with_loops, star_graph
from repro.graphs.multigraph import ECGraph
from repro.graphs.ports import po_double_from_ec
from repro.matching.fm import (
    FractionalMatching,
    InconsistentOutputError,
    fm_from_node_outputs,
    po_node_load,
)

F = Fraction


class TestLoads:
    def test_node_load_sums_incident(self):
        g = path_graph(3)
        fm = FractionalMatching(g, {0: F(1, 3), 1: F(1, 2)})
        assert fm.node_load(1) == F(5, 6)
        assert fm.node_load(0) == F(1, 3)

    def test_loop_counts_once(self):
        """EC convention: a loop's weight contributes once to y[v]."""
        g = single_node_with_loops(2)
        fm = FractionalMatching(g, {0: F(1, 2), 1: F(1, 2)})
        assert fm.node_load(0) == F(1)
        assert fm.is_saturated(0)

    def test_missing_weights_are_zero(self):
        g = path_graph(3)
        fm = FractionalMatching(g, {})
        assert fm.node_load(1) == 0
        assert fm.total_weight() == 0

    def test_unknown_edge_rejected(self):
        g = path_graph(2)
        with pytest.raises(KeyError):
            FractionalMatching(g, {99: F(1)})


class TestFeasibility:
    def test_overload_detected(self):
        g = star_graph(2)
        fm = FractionalMatching(g, {e.eid: F(3, 4) for e in g.edges()})
        problems = fm.feasibility_violations()
        assert any("overloaded" in p for p in problems)
        assert not fm.is_feasible()

    def test_negative_weight_detected(self):
        g = path_graph(2)
        fm = FractionalMatching(g, {0: F(-1, 2)})
        assert not fm.is_feasible()

    def test_above_one_detected(self):
        g = path_graph(2)
        fm = FractionalMatching(g, {0: F(3, 2)})
        assert not fm.is_feasible()

    def test_feasible_example(self):
        g = path_graph(4)
        fm = FractionalMatching(g, {0: F(1, 2), 1: F(1, 2), 2: F(1, 2)})
        assert fm.is_feasible()


class TestMaximality:
    def test_paper_example_maximal(self):
        """The paper's Section 1.2 example (b): a path with weights 1/2."""
        g = path_graph(5)
        weights = {e.eid: F(1, 2) for e in g.edges()}
        fm = FractionalMatching(g, weights)
        assert fm.is_maximal()
        assert len(fm.saturated_nodes()) == 3  # the three interior nodes

    def test_uncovered_edge_detected(self):
        g = path_graph(3)
        fm = FractionalMatching(g, {0: F(1)})  # saturates nodes 0 and 1
        assert fm.maximality_violations() == []
        fm2 = FractionalMatching(g, {0: F(1, 2)})  # nobody saturated
        assert fm2.maximality_violations() == [0, 1]

    def test_loop_needs_saturated_endpoint(self):
        g = single_node_with_loops(2)
        fm = FractionalMatching(g, {0: F(1, 2)})
        assert not fm.is_maximal()
        fm2 = FractionalMatching(g, {0: F(1, 2), 1: F(1, 2)})
        assert fm2.is_maximal()

    def test_fully_saturated(self):
        g = single_node_with_loops(1)
        assert FractionalMatching(g, {0: F(1)}).is_fully_saturated()
        assert not FractionalMatching(g, {0: F(1, 2)}).is_fully_saturated()


class TestComparison:
    def test_disagreements(self):
        g = path_graph(4)
        a = FractionalMatching(g, {0: F(1, 2), 1: F(1, 2)})
        b = FractionalMatching(g, {0: F(1, 2), 2: F(1, 4)})
        assert a.disagreements(b) == [1, 2]

    def test_restricted_to(self):
        g = path_graph(4)
        fm = FractionalMatching(g, {0: F(1), 1: F(0), 2: F(1)})
        restricted = fm.restricted_to([0])
        assert set(restricted.keys()) == {0}


class TestFromNodeOutputs:
    def test_consistent_assembly(self):
        g = path_graph(3)
        outputs = {
            0: {1: F(1, 2)},
            1: {1: F(1, 2), 2: F(1, 2)},
            2: {2: F(1, 2)},
        }
        fm = fm_from_node_outputs(g, outputs)
        assert fm.total_weight() == F(1)

    def test_endpoint_disagreement_raises(self):
        g = path_graph(2)
        outputs = {0: {1: F(1, 2)}, 1: {1: F(1, 3)}}
        with pytest.raises(InconsistentOutputError):
            fm_from_node_outputs(g, outputs)

    def test_missing_node_raises(self):
        g = path_graph(2)
        with pytest.raises(InconsistentOutputError):
            fm_from_node_outputs(g, {0: {1: F(0)}})

    def test_wrong_colour_set_raises(self):
        g = path_graph(2)
        outputs = {0: {1: F(0), 7: F(0)}, 1: {1: F(0)}}
        with pytest.raises(InconsistentOutputError):
            fm_from_node_outputs(g, outputs)

    def test_loop_single_announcement(self):
        g = single_node_with_loops(1)
        fm = fm_from_node_outputs(g, {0: {1: F(1)}})
        assert fm.is_fully_saturated()

    def test_colours_match_by_equality(self):
        """A colour is looked up as ``edge_at`` finds it, by equality: a node
        may announce ``numpy.int64(1)`` for its colour-1 edge."""
        np = pytest.importorskip("numpy")
        g = path_graph(2)
        fm = fm_from_node_outputs(g, {0: {np.int64(1): F(1)}, 1: {1: F(1)}})
        assert fm.weight(0) == F(1)
        assert fm.is_maximal()


class TestPOLoad:
    def test_directed_loop_counts_twice(self):
        """PO convention: a directed loop contributes twice to y[v]."""
        d = po_double_from_ec(single_node_with_loops(1))
        arc = d.edges()[0]
        assert po_node_load(d, {arc.eid: F(1, 2)}, 0) == F(1)

    def test_plain_arcs(self):
        d = po_double_from_ec(path_graph(2))
        weights = {e.eid: F(1, 4) for e in d.edges()}
        assert po_node_load(d, weights, 0) == F(1, 2)
