"""Vertex cover via maximal edge packings (the application behind [3]).

The paper's ``O(Delta)`` upper bound comes from Astrand-Suomela's work on
*vertex cover*: if ``y`` is a **maximal** fractional matching (edge
packing), the set of saturated nodes

    C(y) = { v : y[v] = 1 }

is a vertex cover (maximality: every edge has a saturated endpoint) of size
at most twice the minimum (LP duality: ``|C| <= sum_{v in C} y[v] <=
2 * sum_e y(e) <= 2 * nu_f <= 2 * tau``).  This module provides the
extraction, the verification, and the LP lower bound used to measure the
approximation ratio — making the paper's motivating application runnable.
"""

from __future__ import annotations

from typing import Hashable, Set, Tuple

from ..graphs.multigraph import ECGraph
from .fm import FractionalMatching
from .lp import max_weight_fm_lp

Node = Hashable

__all__ = [
    "vertex_cover_from_fm",
    "is_vertex_cover",
    "vertex_cover_quality",
]


def vertex_cover_from_fm(fm: FractionalMatching) -> Set[Node]:
    """The saturated-node cover ``C(y)`` of a maximal FM.

    Raises ``ValueError`` if the FM is not maximal — the guarantee that
    ``C(y)`` covers every edge is exactly maximality.
    """
    if not fm.is_maximal():
        raise ValueError("the 2-approximation requires a *maximal* FM")
    return set(fm.saturated_nodes())


def is_vertex_cover(g: ECGraph, cover: Set[Node]) -> bool:
    """Whether every (non-loop and loop) edge has an endpoint in ``cover``."""
    return all(e.u in cover or e.v in cover for e in g.edges())


def vertex_cover_quality(fm: FractionalMatching) -> Tuple[Set[Node], float, float]:
    """Extract the cover and measure it against the LP lower bound.

    Returns ``(cover, ratio_bound, lp_lower_bound)`` where
    ``lp_lower_bound = nu_f(G)`` (every vertex cover has at least that many
    nodes, by weak duality) and ``ratio_bound = |cover| / nu_f`` — the
    certified approximation factor, always at most 2 for maximal FMs.
    """
    cover = vertex_cover_from_fm(fm)
    lp_opt, _ = max_weight_fm_lp(fm.graph)
    # The ratio is measured against the scipy LP baseline, which is float by
    # nature (matching/lp.py is the declared floating module); this reporting
    # boundary is the one place matching code speaks float.
    if lp_opt == 0:
        return cover, 1.0 if not cover else float("inf"), 0.0  # repro: noqa[exact-arith]
    return cover, len(cover) / lp_opt, lp_opt  # repro: noqa[exact-arith]
