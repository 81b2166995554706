"""Tests for rooted/colour-preserving isomorphism (repro.graphs.isomorphism)."""

from __future__ import annotations

import pytest

from repro.graphs.families import cycle_graph, path_graph, single_node_with_loops, star_graph
from repro.graphs.isomorphism import (
    balls_isomorphic,
    canonical_rooted_form,
    ec_isomorphic,
    rooted_isomorphic,
)
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball
from repro.graphs.soa import canonical_form_fast


def loopy_tree_a() -> ECGraph:
    g = ECGraph()
    g.add_edge("r", "x", 1)
    g.add_edge("r", "r", 2)
    g.add_edge("x", "x", 2)
    return g


def parallel_pair() -> ECGraph:
    """Two nodes joined by two edges: a cycle of length 2."""
    g = ECGraph()
    g.add_edge(0, 1, 1)
    g.add_edge(0, 1, 2)
    return g


class TestCanonicalForm:
    def test_equal_for_relabelled_graphs(self):
        g = loopy_tree_a()
        h = g.relabel({"r": "R", "x": "X"})
        assert canonical_rooted_form(g, "r") == canonical_rooted_form(h, "R")

    def test_distinguishes_roots(self):
        g = path_graph(3)  # colours 1, 2 alternate
        assert canonical_rooted_form(g, 0) != canonical_rooted_form(g, 2)

    def test_distinguishes_colors(self):
        g = ECGraph()
        g.add_edge("a", "b", 1)
        h = ECGraph()
        h.add_edge("a", "b", 2)
        assert canonical_rooted_form(g, "a") != canonical_rooted_form(h, "a")

    def test_loop_vs_pendant_edge_distinguished(self):
        g = ECGraph()
        g.add_edge("a", "a", 1)
        h = ECGraph()
        h.add_edge("a", "b", 1)
        assert canonical_rooted_form(g, "a") != canonical_rooted_form(h, "a")

    @pytest.mark.parametrize(
        "graph", [cycle_graph(4), cycle_graph(5), parallel_pair()], ids=["c4", "c5", "parallel-pair"]
    )
    def test_cycle_raises_the_fast_paths_value_error(self, graph):
        with pytest.raises(ValueError, match="cycle") as oracle:
            canonical_rooted_form(graph, 0)
        with pytest.raises(ValueError) as fast:
            canonical_form_fast(graph, 0)
        assert str(oracle.value) == str(fast.value)


class TestRootedIsomorphic:
    def test_identical_graphs(self):
        g = loopy_tree_a()
        assert rooted_isomorphic(g, "r", g.copy(), "r")

    def test_symmetric_path_ends(self):
        g = path_graph(3)  # 0 -1- 1 -2- 2; ends both see (their colour, ...)
        # ends have different incident colours (1 vs 2), so NOT isomorphic
        assert not rooted_isomorphic(g, 0, g, 2)

    def test_star_leaves_same_color_iso(self):
        g = star_graph(3)
        h = star_graph(3)
        assert rooted_isomorphic(g, 1, h, 1)
        assert not rooted_isomorphic(g, 1, h, 2)  # different spoke colours

    def test_vf2_fallback_on_cyclic_graphs(self):
        from repro.graphs.families import cycle_graph

        g = cycle_graph(4)
        h = cycle_graph(4)
        assert rooted_isomorphic(g, 0, h, 0)

    def test_vf2_fallback_detects_difference(self):
        from repro.graphs.families import cycle_graph

        g = cycle_graph(4)
        h = cycle_graph(6)
        assert not rooted_isomorphic(g, 0, h, 0)


class TestBallsIsomorphic:
    def test_base_case_of_adversary(self):
        """tau_0 of G0 and H0 are isomorphic (Figure 5)."""
        g0 = single_node_with_loops(4)
        h0 = single_node_with_loops(3)
        assert balls_isomorphic(ball(g0, 0, 0), ball(h0, 0, 0))
        assert not balls_isomorphic(ball(g0, 0, 1), ball(h0, 0, 1))

    def test_radius_mismatch(self):
        g = path_graph(4)
        assert not balls_isomorphic(ball(g, 0, 1), ball(g, 0, 2))

    def test_deep_path_interiors(self):
        g = path_graph(7)
        # interior nodes 2 and 4 have isomorphic radius-1 views iff the
        # colour pattern around them matches (alternating 1,2: both see {1,2})
        assert balls_isomorphic(ball(g, 2, 1), ball(g, 4, 1))


class TestUnrooted:
    def test_ec_isomorphic_relabels(self):
        g = loopy_tree_a()
        h = g.relabel({"r": 0, "x": 1})
        assert ec_isomorphic(g, h)

    def test_ec_isomorphic_rejects(self):
        assert not ec_isomorphic(single_node_with_loops(2), single_node_with_loops(3))
