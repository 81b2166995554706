"""Reference implementations the production graph paths are tested against.

The canonical-form oracle, :func:`repro.graphs.isomorphism.canonical_rooted_form`,
lives in the package (it is public API); the ball oracle lives here.
"""

from __future__ import annotations

from repro.graphs.multigraph import ECGraph


def reference_ball(g: ECGraph, v, t: int):
    """``tau_t(g, v)`` built edge by edge with the generic builder.

    Returns ``(subgraph, distances)``; the production
    :func:`repro.graphs.neighborhoods.ball` must match it in node order,
    edge ids, digest, ``next_eid`` and distances.
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
