"""Maximum-weight fractional matchings (paper, Section 1.2).

Two independent solvers are provided and cross-checked in the tests:

* :func:`max_weight_fm_lp` — the linear program ``max sum_e y(e)`` subject to
  ``y[v] <= 1`` solved with :func:`scipy.optimize.linprog` (floating point);
* :func:`fractional_matching_number_exact` — for loop-free graphs, the exact
  value via the classical identity ``nu_f(G) = nu(BDC(G)) / 2``: the
  fractional matching number equals half the (integral) maximum matching of
  the bipartite double cover.  Exact rational output.

These give the baselines against which approximation benches (experiment E3)
measure their ratios, and the reference for "a maximal FM is a
1/2-approximation of a maximum-weight FM".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Tuple

import networkx as nx
import numpy as np

from ..graphs.lifts import bipartite_double_cover
from ..graphs.multigraph import ECGraph

Node = Hashable
EdgeId = int

__all__ = ["max_weight_fm_lp", "min_fractional_vertex_cover_lp", "fractional_matching_number_exact"]


def max_weight_fm_lp(g: ECGraph) -> Tuple[float, Dict[EdgeId, float]]:
    """Solve the maximum-weight FM linear program.

    Returns ``(optimal total weight, per-edge weights)``.  Loops are
    supported: a loop contributes its weight once to its endpoint's
    constraint (EC convention).  Floating point; use
    :func:`fractional_matching_number_exact` for an exact value on loop-free
    graphs.
    """
    from scipy.optimize import linprog  # loading scipy costs about 0.5 s

    edges = g.edges()
    if not edges:
        return 0.0, {}
    nodes = g.nodes()
    node_index = {v: i for i, v in enumerate(nodes)}
    col = {e.eid: j for j, e in enumerate(edges)}
    a_ub = np.zeros((len(nodes), len(edges)))
    for e in edges:
        a_ub[node_index[e.u], col[e.eid]] += 1.0
        if not e.is_loop:
            a_ub[node_index[e.v], col[e.eid]] += 1.0
    b_ub = np.ones(len(nodes))
    c = -np.ones(len(edges))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * len(edges), method="highs")
    if not res.success:  # pragma: no cover - scipy failure is exceptional
        raise RuntimeError(f"LP solver failed: {res.message}")
    weights = {e.eid: float(res.x[col[e.eid]]) for e in edges}
    return float(-res.fun), weights


def min_fractional_vertex_cover_lp(g: ECGraph) -> Tuple[float, Dict[Node, float]]:
    """The dual LP: minimum fractional vertex cover ``tau_f``.

    ``min sum_v x(v)`` subject to ``x(u) + x(v) >= 1`` per edge (a loop
    needs ``x(v) >= 1`` on its own: both endpoint slots are ``v``).  By LP
    duality ``tau_f = nu_f`` — the identity behind the paper's Section 1.2
    approximation landscape and the [3] vertex-cover application; the tests
    confirm it numerically against :func:`max_weight_fm_lp`.
    """
    from scipy.optimize import linprog  # loading scipy costs about 0.5 s

    nodes = g.nodes()
    edges = g.edges()
    if not edges:
        return 0.0, {v: 0.0 for v in nodes}
    node_index = {v: i for i, v in enumerate(nodes)}
    # constraints: -x(u) - x(v) <= -1
    a_ub = np.zeros((len(edges), len(nodes)))
    for row, e in enumerate(edges):
        a_ub[row, node_index[e.u]] -= 1.0
        if not e.is_loop:
            a_ub[row, node_index[e.v]] -= 1.0
    b_ub = -np.ones(len(edges))
    c = np.ones(len(nodes))
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, None)] * len(nodes), method="highs")
    if not res.success:  # pragma: no cover - scipy failure is exceptional
        raise RuntimeError(f"LP solver failed: {res.message}")
    values = {v: float(res.x[node_index[v]]) for v in nodes}
    return float(res.fun), values


def fractional_matching_number_exact(g: ECGraph) -> Fraction:
    """Exact fractional matching number of a loop-free EC-graph.

    Uses ``nu_f(G) = nu(BDC(G)) / 2``: every FM on ``G`` lifts to an FM of
    equal doubled weight on the bipartite double cover, where the LP is
    integral; conversely an integral matching of the cover averages down to a
    half-integral FM on ``G``.  Loops break the identity (a loop saturates
    its endpoint alone but its single cover edge cannot), so loopy inputs are
    rejected.
    """
    if any(e.is_loop for e in g.edges()):
        raise ValueError("exact method requires a loop-free graph")
    cover, _ = bipartite_double_cover(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(cover.nodes())
    for e in cover.edges():
        nxg.add_edge(e.u, e.v)
    matching = nx.max_weight_matching(nxg, maxcardinality=True)
    return Fraction(len(matching), 2)
