"""Tests for the networkx bridge (repro.graphs.nxbridge)."""

from __future__ import annotations

import networkx as nx

from repro.graphs.families import cycle_graph, single_node_with_loops
from repro.graphs.nxbridge import from_networkx, to_networkx
from tests.oracles import labelled_structure


class TestRoundTrip:
    def test_round_trip_preserves_structure(self):
        g = cycle_graph(5)
        back = from_networkx(to_networkx(g))
        assert sorted(back.nodes()) == sorted(g.nodes())
        # endpoint order within an undirected edge may flip through networkx
        assert {(frozenset((e.u, e.v)), e.color) for e in back.edges()} == {
            (frozenset((e.u, e.v)), e.color) for e in g.edges()
        }

    def test_loops_survive(self):
        g = single_node_with_loops(3)
        back = from_networkx(to_networkx(g))
        assert back.loop_count(0) == 3

    def test_edge_ids_preserved(self):
        g = cycle_graph(4)
        back = from_networkx(to_networkx(g))
        for e in g.edges():
            assert back.edge(e.eid).color == e.color

    def test_parallel_edges_keep_ids_and_colors(self):
        """Regression: parallel edges must not collapse through networkx.

        A MultiGraph keyed by ``eid`` keeps both copies distinct; each must
        come back with its own id and colour, and the labelled structure
        (endpoint order aside) must survive the round trip.
        """
        from repro.graphs.multigraph import ECGraph

        g = ECGraph()
        e0 = g.add_edge("a", "b", 1)
        e1 = g.add_edge("a", "b", 2)
        e2 = g.add_edge("b", "b", 3)  # loop next to the parallel pair
        back = from_networkx(to_networkx(g))
        assert back.num_edges() == 3
        assert back.edge(e0).color == 1
        assert back.edge(e1).color == 2
        assert back.edge(e2).is_loop and back.edge(e2).color == 3
        assert labelled_structure(back) == labelled_structure(g)

    def test_loop_ids_and_colors_preserved(self):
        g = single_node_with_loops(4)
        back = from_networkx(to_networkx(g))
        for e in g.edges():
            assert back.edge(e.eid).is_loop
            assert back.edge(e.eid).color == e.color
        assert labelled_structure(back) == labelled_structure(g)


class TestFromPlainNetworkx:
    def test_uncolored_graph_gets_colored(self):
        nxg = nx.MultiGraph()
        nxg.add_edges_from([(0, 1), (1, 2), (2, 0)])
        g = from_networkx(nxg)
        assert g.num_edges() == 3
        g.validate()  # proper colouring was assigned

    def test_mixed_colored_uncolored(self):
        nxg = nx.MultiGraph()
        nxg.add_edge(0, 1, color=5)
        nxg.add_edge(1, 2)
        g = from_networkx(nxg)
        assert g.num_edges() == 2
        assert g.edge_at(0, 5) is not None
