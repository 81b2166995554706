"""Tests for graph family generators (repro.graphs.families)."""

from __future__ import annotations

import pytest

from repro.graphs.families import (
    caterpillar,
    complete_graph,
    cycle_graph,
    ec_from_simple_edges,
    greedy_edge_coloring,
    path_graph,
    random_bounded_degree_graph,
    random_loopy_tree,
    random_regular_graph,
    single_node_with_loops,
    star_graph,
)


class TestGreedyEdgeColoring:
    def test_properness(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        coloring = greedy_edge_coloring(edges)
        used = {}
        for (u, v), c in coloring.items():
            assert c not in used.get(u, set()) and c not in used.get(v, set())
            used.setdefault(u, set()).add(c)
            used.setdefault(v, set()).add(c)

    def test_palette_bound(self):
        """Greedy uses at most 2*Delta - 1 colours."""
        edges = [(0, i) for i in range(1, 8)]
        coloring = greedy_edge_coloring(edges)
        assert max(coloring.values()) <= 2 * 7 - 1

    def test_deterministic(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        assert greedy_edge_coloring(edges) == greedy_edge_coloring(edges)


class TestStandardFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_nodes() == 5 and g.num_edges() == 4
        assert g.max_degree() == 2
        assert set(g.colors()) <= {1, 2}

    def test_path_single_node(self):
        assert path_graph(1).num_nodes() == 1
        with pytest.raises(ValueError):
            path_graph(0)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges() == 6
        assert all(g.degree(v) == 2 for v in g.nodes())
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert all(g.degree(i) == 1 for i in range(1, 5))

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges() == 10
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_caterpillar(self):
        g = caterpillar(3, 2)
        assert g.num_nodes() == 3 + 6
        assert g.is_tree_ignoring_loops()
        assert g.max_degree() == 4  # interior spine: 2 spine + 2 legs

    def test_single_node_with_loops(self):
        g = single_node_with_loops(5, node="x", first_color=10)
        assert g.degree("x") == 5
        assert g.colors() == list(range(10, 15))


class TestRandomFamilies:
    def test_bounded_degree_respected(self):
        g = random_bounded_degree_graph(30, 4, seed=11)
        assert g.max_degree() <= 4
        assert g.num_edges() > 0

    def test_bounded_degree_deterministic(self):
        a = random_bounded_degree_graph(20, 3, seed=5)
        b = random_bounded_degree_graph(20, 3, seed=5)
        assert {(e.u, e.v, e.color) for e in a.edges()} == {
            (e.u, e.v, e.color) for e in b.edges()
        }

    def test_regular(self):
        g = random_regular_graph(12, 3, seed=2)
        assert all(g.degree(v) == 3 for v in g.nodes())

    def test_loopy_tree_invariants(self):
        g = random_loopy_tree(8, 2, seed=7)
        assert g.is_tree_ignoring_loops()
        assert all(g.loop_count(v) == 2 for v in g.nodes())
        # loop colours below the tree-colour offset never clash
        g.validate()

    def test_ec_from_simple_edges_with_isolated_nodes(self):
        g = ec_from_simple_edges([(0, 1)], nodes=[0, 1, 2])
        assert g.has_node(2) and g.degree(2) == 0


class TestMeaninglessSizes:
    @pytest.mark.parametrize(
        ("build", "message"),
        [
            (lambda: complete_graph(0), "at least 1 node"),
            (lambda: caterpillar(0, 2), "at least 1 spine node"),
            (lambda: caterpillar(3, -1), "legs >= 0"),
            (lambda: random_regular_graph(20, 0, seed=0), "1 <= d < n"),
            (lambda: random_regular_graph(4, 4, seed=0), "1 <= d < n"),
            (lambda: random_loopy_tree(0, 2, seed=0), "at least 1 node"),
            (lambda: random_loopy_tree(5, -1, seed=0), "loops_per_node >= 0"),
        ],
    )
    def test_rejected_with_a_value_error(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_smallest_meaningful_sizes_build(self):
        assert complete_graph(1).num_nodes() == 1
        assert caterpillar(1, 0).num_nodes() == 1
        assert random_regular_graph(2, 1, seed=0).num_edges() == 1
        assert random_loopy_tree(1, 0, seed=0).num_nodes() == 1
