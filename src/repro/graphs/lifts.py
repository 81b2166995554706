"""Lifts and covering maps (paper, Section 3.4) and the unfold/mix moves
of the lower-bound construction (Section 4.3, Figure 6).

A graph ``H`` is a *lift* of ``G`` when there is an onto, colour- and
degree-preserving graph homomorphism (covering map) ``alpha: V(H) -> V(G)``.
Anonymous algorithms cannot distinguish a graph from its lifts — condition
(2) of the paper — which is the leverage the whole Section 4 argument uses.

This module provides:

* :func:`is_covering_map_ec` / :func:`is_covering_map_po` — machine checks
  that a candidate map really is a covering map;
* :func:`unfold_loop` — the 2-lift ``GG`` of ``G`` obtained by opening a loop
  ``e`` into an edge joining two copies of ``G - e``;
* :func:`mix` — the graph ``GH`` made of ``G - e``, ``H - f`` and a fresh
  edge joining the two distinguished nodes;
* :func:`random_two_lift` — a random 2-lift, used in property-based tests of
  lift invariance;
* :func:`bipartite_double_cover` — the classical 2-lift along all edges.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Tuple

from .digraph import POGraph
from .multigraph import ECGraph
from .soa import join_at_loops

Node = Hashable

__all__ = [
    "is_covering_map_ec",
    "is_covering_map_po",
    "unfold_loop",
    "mix",
    "random_two_lift",
    "bipartite_double_cover",
]


def is_covering_map_ec(h: ECGraph, g: ECGraph, alpha: Dict[Node, Node]) -> bool:
    """Check that ``alpha`` is a covering map from EC-graph ``h`` onto ``g``.

    Requirements (paper, Section 3.4): ``alpha`` is onto; it preserves edge
    colours and node degrees; and locally it is a bijection between the edges
    incident to ``v`` and those incident to ``alpha(v)``.  With proper
    colourings the local bijection is forced colour-by-colour, so it suffices
    to check that colour slots match and endpoints are consistent.
    """
    if set(alpha.keys()) != set(h.nodes()):
        return False
    if set(alpha.values()) != set(g.nodes()):
        return False  # not onto (or maps unknown nodes)
    for v in h.nodes():
        gv = alpha[v]
        if sorted(map(repr, h.incident_colors(v))) != sorted(map(repr, g.incident_colors(gv))):
            return False
        for e in h.incident_edges(v):
            ge = g.edge_at(gv, e.color)
            if ge is None:
                return False
            if alpha[e.other(v)] != ge.other(gv):
                return False
    return True


def is_covering_map_po(h: POGraph, g: POGraph, alpha: Dict[Node, Node]) -> bool:
    """Check that ``alpha`` is a covering map from PO-graph ``h`` onto ``g``.

    Preserves out-colour and in-colour slots separately and maps arc heads and
    tails consistently.
    """
    if set(alpha.keys()) != set(h.nodes()):
        return False
    if set(alpha.values()) != set(g.nodes()):
        return False
    for v in h.nodes():
        gv = alpha[v]
        if sorted(map(repr, h.out_colors(v))) != sorted(map(repr, g.out_colors(gv))):
            return False
        if sorted(map(repr, h.in_colors(v))) != sorted(map(repr, g.in_colors(gv))):
            return False
        for e in h.out_edges(v):
            ge = g.out_edge(gv, e.color)
            if ge is None or alpha[e.head] != ge.head:
                return False
        for e in h.in_edges(v):
            ge = g.in_edge(gv, e.color)
            if ge is None or alpha[e.tail] != ge.tail:
                return False
    return True


def unfold_loop(g: ECGraph, loop_eid: int) -> Tuple[ECGraph, Dict[Node, Node], int]:
    """Unfold loop ``e`` of ``g``: build the 2-lift ``GG`` (Section 4.3).

    ``GG`` consists of two disjoint copies of ``g - e`` — nodes labelled
    ``(0, v)`` and ``(1, v)`` — plus a fresh edge of ``e``'s colour joining
    the two copies of ``e``'s endpoint.

    Returns ``(GG, alpha, new_eid)`` where ``alpha`` is the covering map
    ``GG -> g`` (verified property; see tests) and ``new_eid`` is the id of
    the fresh joining edge (the paper keeps calling it ``e``).

    ``GG``'s kernel and columnar snapshot are derived from ``g``'s columns
    (:func:`repro.graphs.soa.join_at_loops`): all ``(0, v)`` nodes come
    first, the copies' edges are numbered in ``g``'s edge order, copy 0's
    first, and the joining edge comes last.  A graph whose colours do not
    sort raises, as :func:`~repro.graphs.soa.snapshot_of` does.
    """
    e = g.edge(loop_eid)
    if not e.is_loop:
        raise ValueError(f"edge {loop_eid} is not a loop")
    kernel, new_eid = join_at_loops(g, loop_eid, g, loop_eid)
    gg = ECGraph.from_kernel(kernel)
    base = g.nodes()
    alpha: Dict[Node, Node] = dict(zip(gg.nodes(), base + base))
    return gg, alpha, new_eid


def mix(
    g: ECGraph,
    g_loop_eid: int,
    h: ECGraph,
    h_loop_eid: int,
) -> Tuple[ECGraph, int]:
    """Mix ``g`` and ``h``: build ``GH`` (Section 4.3, Figure 6).

    ``GH`` contains a copy of ``g - e`` (nodes ``(0, v)``), a copy of
    ``h - f`` (nodes ``(1, v)``), and a fresh edge of the common colour
    joining the two anchor nodes.  Both loops must carry the same colour.

    Returns ``(GH, new_eid)``.  As in :func:`unfold_loop`, ``GH``'s kernel
    and snapshot are derived from the parents' columns, and a graph whose
    colours do not sort raises.
    """
    e = g.edge(g_loop_eid)
    f = h.edge(h_loop_eid)
    if not (e.is_loop and f.is_loop):
        raise ValueError("both edges must be loops")
    if e.color != f.color:
        raise ValueError(f"loop colours differ: {e.color!r} vs {f.color!r}")
    kernel, new_eid = join_at_loops(g, g_loop_eid, h, h_loop_eid)
    return ECGraph.from_kernel(kernel), new_eid


def random_two_lift(g: ECGraph, rng: random.Random) -> Tuple[ECGraph, Dict[Node, Node]]:
    """A uniformly random 2-lift of ``g``.

    Every edge independently is either *straight* (two parallel copies) or
    *crossed* (the copies swap sides); a crossed loop unfolds into an edge
    between the two copies of its endpoint, a straight loop stays a loop on
    each side.  Returns the lift and its covering map.
    """
    lifted, alpha = _doubled_node_scaffold(g)
    for e in g.edges():
        crossed = rng.random() < 0.5
        if e.is_loop:
            if crossed:
                lifted.add_edge((0, e.u), (1, e.u), e.color)
            else:
                lifted.add_edge((0, e.u), (0, e.u), e.color)
                lifted.add_edge((1, e.u), (1, e.u), e.color)
        else:
            if crossed:
                lifted.add_edge((0, e.u), (1, e.v), e.color)
                lifted.add_edge((1, e.u), (0, e.v), e.color)
            else:
                lifted.add_edge((0, e.u), (0, e.v), e.color)
                lifted.add_edge((1, e.u), (1, e.v), e.color)
    return lifted, alpha


def bipartite_double_cover(g: ECGraph) -> Tuple[ECGraph, Dict[Node, Node]]:
    """The bipartite double cover: the 2-lift with *every* edge crossed."""
    lifted, alpha = _doubled_node_scaffold(g)
    for e in g.edges():
        if e.is_loop:
            lifted.add_edge((0, e.u), (1, e.u), e.color)
        else:
            lifted.add_edge((0, e.u), (1, e.v), e.color)
            lifted.add_edge((1, e.u), (0, e.v), e.color)
    return lifted, alpha


def _doubled_node_scaffold(g: ECGraph) -> Tuple[ECGraph, Dict[Node, Node]]:
    """Two tagged copies of ``g``'s node set with no edges, plus the covering
    map — the shared scaffold every explicit 2-lift starts from."""
    lifted = ECGraph()
    alpha: Dict[Node, Node] = {}
    for tag in (0, 1):
        for v in g.nodes():
            alpha[lifted.add_node((tag, v))] = v
    return lifted, alpha
