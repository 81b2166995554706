"""Radius-``t`` neighbourhoods ``tau_t(G, v)`` (paper, Section 3.1).

The paper defines the *distance of an edge* ``{u, w}`` from ``v`` as
``min(dist(v, u), dist(v, w)) + 1`` and lets ``tau_t(G, v)`` consist of the
nodes and edges of ``G`` within distance ``t`` of ``v``.  Consequently:

* ``tau_0(G, v)`` is the bare node ``v`` — even loops at ``v`` are at
  distance 1 and therefore excluded (this is exactly why the base case of the
  paper's Section 4 works);
* ``tau_t`` contains all nodes at distance at most ``t`` and all edges with
  an endpoint at distance at most ``t - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from .kernel import GraphKernel
from .multigraph import ECGraph

Node = Hashable

__all__ = ["Ball", "ball"]


@dataclass
class Ball:
    """A rooted radius-``t`` neighbourhood extracted from an EC-graph.

    Attributes
    ----------
    graph:
        The subgraph ``tau_t(G, v)`` (an :class:`ECGraph`, same labels/ids).
    root:
        The centre node ``v``.
    radius:
        The radius ``t``.
    distances:
        BFS distance of each ball node from the root.
    """

    graph: ECGraph
    root: Node
    radius: int
    distances: Dict[Node, int]

    @property
    def kernel(self) -> GraphKernel:
        """Frozen kernel snapshot of the ball's subgraph."""
        return self.graph.kernel

    def canonical_form(self):
        """Canonical rooted form of the ball's tree-with-loops.

        Delegates to :func:`repro.graphs.isomorphism.canonical_form_of`, so
        an installed canonical-form cache (the sweep engine's) is consulted;
        raises ``ValueError`` for non-tree balls, like the canonicaliser.
        """
        from .isomorphism import canonical_form_of

        return canonical_form_of(self.graph, self.root)


def ball(g: ECGraph, v: Node, t: int) -> Ball:
    """Extract ``tau_t(g, v)`` following the paper's edge-distance rule.

    Nodes at distance at most ``t`` are included; an edge is included iff one
    of its endpoints lies at distance at most ``t - 1`` (equivalently, the
    edge's distance ``min dist + 1`` is at most ``t``).  Loops at a node of
    distance ``d`` have distance ``d + 1``.  Raises ``KeyError`` when ``v``
    is not a node of ``g``, at every radius.

    The ball is built edge by edge with the generic builder: its nodes in
    BFS discovery order, then ``g``'s included edges in ``g``'s edge order,
    each with its own id.
    """
    if t < 0:
        raise ValueError("radius must be non-negative")
    if not g.has_node(v):
        raise KeyError(v)
    dist = g.bfs_distances(v, max_dist=t)
    sub = ECGraph()
    for w in dist:
        sub.add_node(w)
    for e in g.edges():
        du, dv = dist.get(e.u), dist.get(e.v)
        if du is not None and dv is not None and min(du, dv) < t:
            sub.add_edge(e.u, e.v, e.color, eid=e.eid)
    return Ball(graph=sub, root=v, radius=t, distances=dist)
