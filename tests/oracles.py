"""Reference implementations the production graph paths are tested against.

The canonical-form oracle, :func:`repro.graphs.isomorphism.canonical_rooted_form`,
lives in the package (it is public API); the ball oracle and the
labelled-structure comparison live here.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.kernel import DiEdge
from repro.graphs.multigraph import ECGraph


def labelled_structure(g):
    """The node set and the multiset of ``(endpoints, colour)`` edges of ``g``.

    ``g`` is any graph with ``nodes()`` and ``edges()``: an EC or PO view or
    a frozen kernel.  An edge's endpoints are unordered, an arc's are
    ``(tail, head)``; edge ids are left out.  Labels and colours are
    compared by equality, never by ``repr``, so two graphs have equal
    structures exactly when they are the same labelled graph up to edge
    ids.
    """
    edges = Counter()
    for e in g.edges():
        ends = (e.tail, e.head) if isinstance(e, DiEdge) else frozenset((e.u, e.v))
        edges[ends, e.color] += 1
    return frozenset(g.nodes()), edges


def reference_ball(g: ECGraph, v, t: int):
    """``tau_t(g, v)`` built edge by edge with the generic builder.

    Returns ``(subgraph, distances)``; the production
    :func:`repro.graphs.neighborhoods.ball` must match it in node order,
    edge ids, labelled structure, ``next_eid`` and distances.
    """
    dist = g.bfs_distances(v, max_dist=t)
    sub = ECGraph()
    for w in dist:
        sub.add_node(w)
    if t >= 1:
        for e in g.edges():
            du = dist.get(e.u)
            dv = dist.get(e.v)
            candidates = [d for d in (du, dv) if d is not None]
            if not candidates:
                continue
            if min(candidates) <= t - 1 and du is not None and dv is not None:
                sub.add_edge(e.u, e.v, e.color, eid=e.eid)
    return sub, dist
