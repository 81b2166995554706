"""Luby's randomised maximal independent set (paper, Section 1.1 context).

The classical ``O(log n)``-round algorithm [Alon-Babai-Itai, Luby]: each
round every live node draws a random priority; local minima join the MIS and
are removed together with their neighbours.  Round-counted local simulation
with a caller-supplied RNG for reproducibility.

A maximal matching is an MIS of the line graph, which is how the randomised
matching baseline in :mod:`repro.matching.integral` uses this module.
"""

from __future__ import annotations

import random
from typing import Hashable, Set, Tuple

import networkx as nx

Node = Hashable

__all__ = ["luby_mis", "validate_mis"]


def luby_mis(g: "nx.Graph", rng: random.Random, max_rounds: int = 10_000) -> Tuple[Set[Node], int]:
    """Compute an MIS of ``g``; returns ``(mis, rounds)``.

    Each round costs two message exchanges (priorities, then join
    announcements); we count it as 2 communication rounds.  Terminates with
    probability 1; expected ``O(log n)`` rounds.
    """
    live: Set[Node] = set(g.nodes())
    mis: Set[Node] = set()
    rounds = 0
    while live and rounds < max_rounds:
        priority = {v: rng.random() for v in live}
        joined = {
            v
            for v in live
            if all(priority[v] < priority[w] for w in g.neighbors(v) if w in live)
        }
        mis |= joined
        removed = set(joined)
        for v in joined:
            removed.update(w for w in g.neighbors(v) if w in live)
        live -= removed
        rounds += 2
    if live:  # pragma: no cover - would need astronomically bad luck
        raise RuntimeError("Luby MIS failed to terminate within the round cap")
    return mis, rounds


def validate_mis(g: "nx.Graph", mis: Set[Node]) -> bool:
    """Whether ``mis`` is independent and dominating (i.e. maximal)."""
    for v in mis:
        if any(w in mis for w in g.neighbors(v)):
            return False
    for v in g.nodes():
        if v not in mis and not any(w in mis for w in g.neighbors(v)):
            return False
    return True
