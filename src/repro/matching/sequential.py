"""Centralised (sequential) baselines for matchings.

Used as references in tests and benches: the distributed algorithms must
produce solutions with the same *properties* (feasibility, maximality) as
these trivially correct sequential counterparts, and the classical
"maximal FM is a 1/2-approximation" bound is validated against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, Optional, Set

from ..graphs.multigraph import ECGraph
from .fm import FractionalMatching, ONE

Node = Hashable
EdgeId = int

__all__ = ["greedy_maximal_fm", "greedy_maximal_matching", "matching_as_fm"]


def greedy_maximal_fm(g: ECGraph, order: Optional[Iterable[EdgeId]] = None) -> FractionalMatching:
    """Sequential greedy maximal FM: process edges, assign ``min`` of residuals.

    Every processed edge leaves one endpoint saturated (or already had one),
    so the result is maximal; it is feasible because assignments never exceed
    residual capacity.  ``order`` customises the processing order (edge ids);
    default is increasing edge id.
    """
    residual: Dict[Node, Fraction] = {v: ONE for v in g.nodes()}
    weights: Dict[EdgeId, Fraction] = {}
    ids = list(order) if order is not None else sorted(e.eid for e in g.edges())
    for eid in ids:
        e = g.edge(eid)
        if e.is_loop:
            w = residual[e.u]
            weights[eid] = w
            residual[e.u] -= w
        else:
            w = min(residual[e.u], residual[e.v])
            weights[eid] = w
            residual[e.u] -= w
            residual[e.v] -= w
    return FractionalMatching(graph=g, weights=weights)


def greedy_maximal_matching(g: ECGraph, order: Optional[Iterable[EdgeId]] = None) -> Set[EdgeId]:
    """Sequential greedy maximal (integral) matching on the non-loop edges."""
    matched: Set[Node] = set()
    chosen: Set[EdgeId] = set()
    ids = list(order) if order is not None else sorted(e.eid for e in g.edges())
    for eid in ids:
        e = g.edge(eid)
        if e.is_loop:
            continue
        if e.u not in matched and e.v not in matched:
            chosen.add(eid)
            matched.add(e.u)
            matched.add(e.v)
    return chosen


def matching_as_fm(g: ECGraph, matching: Set[EdgeId]) -> FractionalMatching:
    """View an integral matching as a 0/1 fractional matching."""
    return FractionalMatching(graph=g, weights={eid: ONE for eid in matching})
