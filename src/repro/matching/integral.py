"""Distributed maximal (integral) matching baselines (paper, Section 1.1).

Three algorithms with measured round counts:

* :func:`panconesi_rizzi_matching` — the deterministic
  ``O(Delta + log* n)`` algorithm: decompose into ``Delta`` rooted forests
  (0 rounds, from identifiers), 3-colour them all in parallel with
  Cole-Vishkin (``O(log* n)`` rounds), then sweep the forests; within a
  forest a 3-colouring lets unmatched nodes propose to parents colour class
  by colour class, ``O(1)`` rounds per forest.  This is the algorithm whose
  optimality the paper's open question (can ``o(Delta) + O(log* n)`` work?)
  asks about.
* :func:`randomized_matching` — Israeli-Itai-style: every round unmatched
  nodes propose to a random unmatched neighbour; proposal-receivers accept
  one.  Expected ``O(log n)`` rounds.
* :func:`greedy_matching_by_color` — given a proper edge colouring, sweep
  the colour classes; an edge joins the matching when processed with both
  endpoints unmatched.  ``palette`` rounds, maximal by construction.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, List, Set, Tuple

import networkx as nx

from ..coloring.cole_vishkin import cole_vishkin_3color
from ..coloring.forests import forest_decomposition

Node = Hashable
EdgeKey = Tuple

__all__ = [
    "panconesi_rizzi_matching",
    "randomized_matching",
    "greedy_matching_by_color",
    "validate_maximal_matching",
]


def panconesi_rizzi_matching(g: "nx.Graph") -> Tuple[Set[EdgeKey], int]:
    """Deterministic maximal matching in ``O(Delta + log* n)`` rounds.

    Returns the matching (canonical edge pairs) and the round count:
    the parallel Cole-Vishkin rounds (counted once — the forests are
    processed simultaneously) plus 6 rounds per forest sweep.
    """
    forests = forest_decomposition(g)
    ids = {v: v for v in g.nodes()}
    colorings = []
    cv_rounds = 0
    for parent in forests:
        colors, r = cole_vishkin_3color(parent, ids)
        colorings.append(colors)
        cv_rounds = max(cv_rounds, r)  # forests are coloured in parallel

    matched: Set[Node] = set()
    matching: Set[EdgeKey] = set()
    sweep_rounds = 0
    for parent, colors in zip(forests, colorings):
        for c in (0, 1, 2):
            # one proposal round + one accept round
            proposals: Dict[Node, List[Node]] = {}
            for v, p in parent.items():
                if p is None or v in matched or p in matched:
                    continue
                if colors[v] == c:
                    proposals.setdefault(p, []).append(v)
            for p, proposers in proposals.items():
                if p in matched:
                    continue
                chosen = min(proposers)
                matching.add(tuple(sorted((chosen, p))))
                matched.add(chosen)
                matched.add(p)
            sweep_rounds += 2
    return matching, cv_rounds + sweep_rounds


def randomized_matching(g: "nx.Graph", rng: random.Random, max_rounds: int = 10_000) -> Tuple[Set[EdgeKey], int]:
    """Randomised maximal matching; expected ``O(log n)`` rounds.

    Each round: every unmatched node with an unmatched neighbour proposes to
    a random such neighbour; every node receiving proposals accepts one at
    random and the pair is matched.  Two communication rounds per iteration.
    """
    matched: Set[Node] = set()
    matching: Set[EdgeKey] = set()
    rounds = 0
    while rounds < max_rounds:
        live_edges = [
            (u, v) for u, v in g.edges() if u not in matched and v not in matched
        ]
        if not live_edges:
            break
        proposals: Dict[Node, List[Node]] = {}
        for v in g.nodes():
            if v in matched:
                continue
            candidates = [w for w in g.neighbors(v) if w not in matched]
            if candidates:
                target = rng.choice(candidates)
                proposals.setdefault(target, []).append(v)
        for target, proposers in sorted(proposals.items(), key=lambda kv: repr(kv[0])):
            if target in matched:
                continue
            free = [p for p in proposers if p not in matched]
            if not free:
                continue
            chosen = rng.choice(free)
            matching.add(tuple(sorted((chosen, target))))
            matched.add(chosen)
            matched.add(target)
        rounds += 2
    if any(u not in matched and v not in matched for u, v in g.edges()):
        raise RuntimeError("randomized matching did not finish within the cap")
    return matching, rounds


def greedy_matching_by_color(
    g: "nx.Graph", edge_coloring: Dict[EdgeKey, int]
) -> Tuple[Set[EdgeKey], int]:
    """Sweep colour classes of a proper edge colouring; 1 round per colour.

    Within a class the edges are pairwise non-adjacent, so all eligible
    edges join the matching simultaneously.  Maximal: when an edge's class
    is processed, either it joins or an endpoint is already matched.
    """
    matched: Set[Node] = set()
    matching: Set[EdgeKey] = set()
    palette = sorted(set(edge_coloring.values()))
    for c in palette:
        for key, col in edge_coloring.items():
            if col != c:
                continue
            u, v = key
            if u not in matched and v not in matched:
                matching.add(key)
                matched.add(u)
                matched.add(v)
    return matching, len(palette)


def validate_maximal_matching(g: "nx.Graph", matching: Set[EdgeKey]) -> bool:
    """Whether ``matching`` is a matching of ``g`` and is maximal."""
    used: Set[Node] = set()
    for u, v in matching:
        if not g.has_edge(u, v):
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    return all(u in used or v in used for u, v in g.edges())
