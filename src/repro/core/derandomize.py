"""Derandomising local algorithms (paper, Appendix B, Lemma 10).

Randomness does not help a local algorithm solve a locally checkable problem
such as maximal FM.  The engine is Lemma 10: for every ``n`` there is an
``n``-element identifier set ``S_n`` and an assignment ``rho_n`` of random
strings such that the *deterministic* algorithm ``A_rho_n`` is correct on
every graph with identifiers from ``S_n``.  The proof is an averaging
argument over disjoint unions: if every assignment failed somewhere, one
could assemble a multi-component graph on which the randomised algorithm
fails with probability arbitrarily close to 1.

This module makes both halves executable for finite universes:

* :func:`find_good_assignment` searches identifier sets and random-string
  assignments until one is correct on *all* graphs over the set;
* :func:`failure_amplification` measures the failure probability on
  disjoint unions of independently sampled bad components, reproducing the
  ``1 - (1 - 1/k)^q`` amplification the proof uses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

__all__ = [
    "all_graphs_on",
    "find_good_assignment",
    "failure_amplification",
]

Rho = Dict[int, int]  # identifier -> random seed/string (an int suffices)
#: a correctness oracle: (graph, rho) -> did the derandomised run succeed?
CorrectnessOracle = Callable[["nx.Graph", Rho], bool]


def all_graphs_on(ids: Sequence[int], connected_only: bool = False) -> List["nx.Graph"]:
    """Every simple graph with vertex set exactly ``ids`` (tiny universes only).

    The count is ``2**(n choose 2)``; intended for ``n <= 4`` as in the
    Lemma 10 demonstrations.
    """
    ids = sorted(ids)
    pairs = list(combinations(ids, 2))
    out: List[nx.Graph] = []
    for mask in range(1 << len(pairs)):
        g = nx.Graph()
        g.add_nodes_from(ids)
        for j, (u, v) in enumerate(pairs):
            if mask >> j & 1:
                g.add_edge(u, v)
        if connected_only and not nx.is_connected(g):
            continue
        out.append(g)
    return out


def find_good_assignment(
    correct: CorrectnessOracle,
    id_sets: Iterable[Sequence[int]],
    rng: random.Random,
    rho_bits: int = 30,
    attempts_per_set: int = 64,
    connected_only: bool = False,
) -> Optional[Tuple[List[int], Rho]]:
    """Search for ``(S_n, rho_n)`` making the derandomised algorithm correct
    on every graph over ``S_n`` (Lemma 10, executably).

    ``correct`` runs the algorithm with the supplied random strings on one
    graph and verifies the output.  For each candidate identifier set the
    search samples ``attempts_per_set`` random assignments; per Lemma 10 a
    good pair exists once enough disjoint sets are tried (for reasonable
    algorithms the very first set succeeds).
    """
    for ids in id_sets:
        graphs = all_graphs_on(ids, connected_only=connected_only)
        for _ in range(attempts_per_set):
            rho: Rho = {i: rng.getrandbits(rho_bits) for i in ids}
            if all(correct(g, rho) for g in graphs):
                return sorted(ids), rho
    return None


def failure_amplification(
    correct: CorrectnessOracle,
    bad_graph: "nx.Graph",
    rng: random.Random,
    components: int,
    samples: int = 200,
) -> Fraction:
    """Estimate the failure probability on ``components`` disjoint copies.

    If the algorithm fails on ``bad_graph`` with probability ``p`` under
    fresh randomness, the disjoint union of ``q`` identifier-disjoint copies
    fails with probability ``1 - (1 - p)**q`` — the amplification at the
    heart of Lemma 10's proof.  Returns the empirical failure rate of the
    union over ``samples`` random assignments.
    """
    ids = sorted(bad_graph.nodes())
    failures = 0
    for _ in range(samples):
        failed = False
        for c in range(components):
            # identifier-disjoint copy: shift identifiers per component
            shift = (max(ids) + 1) * c
            copy = nx.relabel_nodes(bad_graph, {v: v + shift for v in ids}, copy=True)
            rho = {v: rng.getrandbits(30) for v in copy.nodes()}
            if not correct(copy, rho):
                failed = True
                break
        failures += failed
    return Fraction(failures, samples)
