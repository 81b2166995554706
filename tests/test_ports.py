"""Tests for port numbering conversions (repro.graphs.ports, paper Figure 2)."""

from __future__ import annotations

import pytest

from repro.graphs.families import cycle_graph, single_node_with_loops, star_graph
from repro.graphs.ports import (
    po_double_from_ec,
    po_from_port_numbering,
    port_numbering_from_po,
)
from tests.oracles import labelled_structure


class TestPO1ToPO2:
    def test_figure2a_style_conversion(self):
        # a path a - b - c with ports: a:[b], b:[a, c], c:[b]
        ports = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        orientation = {("a", "b"), ("c", "b")}
        g = po_from_port_numbering(ports, orientation)
        e = g.out_edge("a", (1, 1))
        assert e is not None and e.head == "b"
        e2 = g.out_edge("c", (1, 2))
        assert e2 is not None and e2.head == "b"

    def test_colors_encode_port_pairs(self):
        ports = {"u": ["v", "w"], "v": ["u"], "w": ["u"]}
        orientation = {("u", "v"), ("w", "u")}
        g = po_from_port_numbering(ports, orientation)
        # u->v: v is u's 1st neighbour, u is v's 1st neighbour -> colour (1,1)
        assert g.out_edge("u", (1, 1)).head == "v"
        # w->u: u is w's 1st neighbour, w is u's 2nd neighbour -> colour (1,2)
        assert g.out_edge("w", (1, 2)).head == "u"

    def test_missing_edge_in_ports_rejected(self):
        with pytest.raises(ValueError):
            po_from_port_numbering({"a": [], "b": []}, {("a", "b")})

    def test_duplicate_neighbour_rejected(self):
        with pytest.raises(ValueError):
            po_from_port_numbering({"a": ["b", "b"], "b": ["a"]}, set())


class TestPO2ToPO1:
    def test_out_then_in_by_color(self):
        ports = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        orientation = {("a", "b"), ("c", "b")}
        g = po_from_port_numbering(ports, orientation)
        numbering = port_numbering_from_po(g)
        roles_b = [role for _, role in numbering["b"]]
        # all out ports precede all in ports
        assert roles_b == sorted(roles_b, key=lambda r: 0 if r == "out" else 1)

    def test_loop_appears_twice(self):
        g = po_double_from_ec(single_node_with_loops(2))
        numbering = port_numbering_from_po(g)
        (node,) = numbering.keys()
        assert len(numbering[node]) == 4  # 2 loops x (out + in)


class TestECDoubling:
    def test_degrees_double(self):
        """Section 5.1: EC max degree D/2 -> PO max degree D."""
        for g in (cycle_graph(5), star_graph(4), single_node_with_loops(3)):
            d = po_double_from_ec(g)
            for v in g.nodes():
                assert d.degree(v) == 2 * g.degree(v)

    def test_nonloop_edge_becomes_two_arcs(self):
        g = star_graph(2)
        d = po_double_from_ec(g)
        e = g.edge_at(0, 1)
        assert d.edge(2 * e.eid).tail == e.u and d.edge(2 * e.eid).head == e.v
        assert d.edge(2 * e.eid + 1).tail == e.v and d.edge(2 * e.eid + 1).head == e.u

    def test_loop_becomes_one_directed_loop(self):
        g = single_node_with_loops(1)
        d = po_double_from_ec(g)
        assert d.num_edges() == 1
        arc = d.edges()[0]
        assert arc.is_loop

    def test_colors_preserved(self):
        g = cycle_graph(6)
        d = po_double_from_ec(g)
        assert set(d.colors()) == set(g.colors())

    def test_po_properness_holds(self):
        d = po_double_from_ec(cycle_graph(7))
        d.validate()

    def test_parallel_edges_keep_arc_provenance(self):
        """Regression: parallel EC edges double into distinct arc pairs.

        Arc ids ``2 * eid`` / ``2 * eid + 1`` must keep each parallel edge's
        identity and colour; loops map to the single arc ``2 * eid``.
        """
        from repro.graphs.multigraph import ECGraph

        g = ECGraph()
        e0 = g.add_edge("a", "b", 1)
        e1 = g.add_edge("a", "b", 2)
        loop = g.add_edge("a", "a", 3)
        d = po_double_from_ec(g)
        assert d.num_edges() == 5  # 2 arcs per parallel edge + 1 loop arc
        for eid, color in ((e0, 1), (e1, 2)):
            assert d.edge(2 * eid).color == color
            assert d.edge(2 * eid + 1).color == color
            assert d.edge(2 * eid).tail == "a" and d.edge(2 * eid).head == "b"
            assert d.edge(2 * eid + 1).tail == "b" and d.edge(2 * eid + 1).head == "a"
        assert d.edge(2 * loop).is_loop and d.edge(2 * loop).color == 3
        d.validate()

    def test_doubling_same_graph_twice_gives_same_digest(self):
        g = cycle_graph(6)
        assert labelled_structure(po_double_from_ec(g)) == labelled_structure(
            po_double_from_ec(g.fork())
        )
