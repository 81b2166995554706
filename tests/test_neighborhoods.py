"""Tests for tau_t extraction (repro.graphs.neighborhoods)."""

from __future__ import annotations

import pytest

from repro.graphs.families import path_graph, single_node_with_loops, star_graph
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball


class TestRadiusZero:
    def test_tau0_is_bare_node(self):
        """Paper Section 4.2: loops are at distance 1, so tau_0 has no edges."""
        g = single_node_with_loops(4)
        b = ball(g, 0, 0)
        assert b.graph.num_nodes() == 1
        assert b.graph.num_edges() == 0

    def test_tau0_on_path(self):
        g = path_graph(3)
        b = ball(g, 1, 0)
        assert b.graph.nodes() == [1]
        assert b.graph.num_edges() == 0


class TestEdgeDistanceRule:
    def test_tau1_includes_incident_edges_and_loops(self):
        g = single_node_with_loops(3)
        b = ball(g, 0, 1)
        assert b.graph.num_edges() == 3

    def test_tau1_on_star_includes_all_spokes(self):
        g = star_graph(4)
        b = ball(g, 0, 1)
        assert b.graph.num_nodes() == 5
        assert b.graph.num_edges() == 4

    def test_leaf_tau1_excludes_far_edges(self):
        g = star_graph(4)
        b = ball(g, 1, 1)  # a leaf: sees centre and its own spoke only
        assert set(b.graph.nodes()) == {0, 1}
        assert b.graph.num_edges() == 1

    def test_boundary_nodes_carry_no_extra_edges(self):
        """An edge between two distance-t nodes has distance t+1: excluded."""
        g = path_graph(5)  # 0-1-2-3-4
        b = ball(g, 0, 2)
        assert set(b.graph.nodes()) == {0, 1, 2}
        # edge {2,3} has distance 3 from node 0 -> not included
        assert b.graph.num_edges() == 2

    def test_loop_at_boundary_node_excluded(self):
        g = ECGraph()
        g.add_edge(0, 1, 1)
        g.add_edge(1, 1, 2)  # loop at the distance-1 node
        b = ball(g, 0, 1)
        # the loop has distance 2 from node 0
        assert b.graph.num_edges() == 1
        b2 = ball(g, 0, 2)
        assert b2.graph.num_edges() == 2


class TestMetadata:
    def test_distances_recorded(self):
        g = path_graph(4)
        b = ball(g, 0, 2)
        assert b.distances == {0: 0, 1: 1, 2: 2}
        assert b.root == 0 and b.radius == 2

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ball(path_graph(2), 0, -1)

    @pytest.mark.parametrize("t", [0, 1, 2])
    def test_missing_root_raises_at_every_radius(self, t):
        # radius 0 included: a node that is not in the graph has no ball
        with pytest.raises(KeyError):
            ball(path_graph(3), 99, t)

    def test_ball_preserves_edge_ids(self):
        g = path_graph(4)
        b = ball(g, 1, 1)
        for e in b.graph.edges():
            orig = g.edge(e.eid)
            assert orig.color == e.color


class TestBuildOrder:
    def test_nodes_in_discovery_order_edges_in_graph_order(self):
        """The ball is built edge by edge: nodes as BFS discovers them,
        then the included edges in ``g``'s order, with ``g``'s ids."""
        g = ECGraph()
        g.add_edge(2, 3, 1)  # eid 0
        g.add_edge(0, 1, 1)  # eid 1
        g.add_edge(1, 2, 2)  # eid 2
        g.add_edge(1, 1, 3)  # eid 3, a loop at distance 1
        g.add_edge(0, 0, 2)  # eid 4, a loop at the root
        g.add_edge(3, 4, 2)  # eid 5
        assert g.nodes() == [2, 3, 0, 1, 4]
        b = ball(g, 0, 2)
        assert b.graph.nodes() == [0, 1, 2]
        assert list(b.distances.items()) == [(0, 0), (1, 1), (2, 2)]
        assert [(e.eid, e.u, e.v, e.color) for e in b.graph.edges()] == [
            (1, 0, 1, 1),
            (2, 1, 2, 2),
            (3, 1, 1, 3),
            (4, 0, 0, 2),
        ]
        assert b.graph.kernel._next_eid == 5
