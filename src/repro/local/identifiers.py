"""Identifier machinery for the ID and OI models (paper, Sections 3.2, 5.4).

Order-invariance arguments repeatedly manipulate *ID-assignments that respect
a linear order*: maps ``phi`` from ordered nodes into an identifier pool such
that the numeric order of the images matches the given order.  Section 5.4
additionally needs *sparse* identifier sets ``J`` obtained by keeping every
``(m+1)``-th element of a larger set ``I``, so that between any two chosen
identifiers there remain ``m`` unused ones to absorb single-node relabelings
(Lemma 7's interpolation step).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Hashable, Iterator, List, Sequence

Node = Hashable

__all__ = [
    "assign_ids_respecting_order",
    "sparse_subset",
    "order_respecting_assignments",
    "interpolate_assignments",
    "relabel_single_node",
]


def _distinct_sorted(pool: Sequence[int]) -> List[int]:
    """The pool in increasing order; a repeated identifier raises ``ValueError``."""
    ids = sorted(pool)
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise ValueError(f"identifier {a!r} appears more than once in the pool")
    return ids


def assign_ids_respecting_order(ordered_nodes: Sequence[Node], pool: Sequence[int]) -> Dict[Node, int]:
    """Assign the ``i``-th smallest pool identifier to the ``i``-th node.

    ``ordered_nodes`` must list the nodes in increasing linear order; the
    pool must hold at least as many identifiers, all distinct.  The result
    respects the order in the paper's sense: ``v`` before ``u`` implies
    ``phi(v) < phi(u)``.
    """
    ids = _distinct_sorted(pool)
    if len(ids) < len(ordered_nodes):
        raise ValueError(
            f"pool has {len(ids)} identifiers for {len(ordered_nodes)} nodes"
        )
    return {v: ids[i] for i, v in enumerate(ordered_nodes)}


def sparse_subset(identifiers: Sequence[int], m: int) -> List[int]:
    """Keep every ``(m+1)``-th identifier (Section 5.4, step (ii)).

    Between any two kept identifiers ``j < j'`` there remain at least ``m``
    distinct dropped identifiers strictly between them — the slack Lemma 7
    uses to move a single node's identifier without disturbing the order of
    the others.
    """
    if m < 0:
        raise ValueError(f"sparsity m must be >= 0, got {m}")
    ids = _distinct_sorted(identifiers)
    return ids[:: m + 1]


def order_respecting_assignments(
    ordered_nodes: Sequence[Node], pool: Sequence[int], limit: int
) -> Iterator[Dict[Node, int]]:
    """Yield up to ``limit`` distinct order-respecting assignments from ``pool``.

    Each assignment chooses ``len(ordered_nodes)`` identifiers from the pool
    (as a combination, since the order of images is forced) — exactly the
    objects quantified over in Lemmas 6 and 7.  The pool's identifiers must
    be distinct.
    """
    ids = _distinct_sorted(pool)
    k = len(ordered_nodes)
    produced = 0
    for combo in combinations(ids, k):
        if produced >= limit:
            return
        yield {v: combo[i] for i, v in enumerate(ordered_nodes)}
        produced += 1


def interpolate_assignments(
    phi1: Dict[Node, int],
    phi2: Dict[Node, int],
    ordered_nodes: Sequence[Node],
) -> List[Dict[Node, int]]:
    """The Lemma 7 interpolation: connect two order-respecting assignments
    by a chain in which consecutive assignments differ on exactly one node.

    The paper relates any ``phi1, phi2`` over the sparse set ``J`` through
    ``pi_1 = phi1, pi_2, ..., pi_k = phi2`` where every ``pi_i`` respects
    the order and ``pi_i, pi_{i+1}`` disagree on a single node.  The
    construction sweeps the nodes from the *top* of the order, moving each
    to its ``phi2`` value; because both assignments are monotone along
    ``ordered_nodes``, monotonicity is preserved at every intermediate step
    when values are settled from the largest node downward (or upward,
    whichever direction the change goes).

    Returns the full chain (including both endpoints); every element is
    verified to respect the order.  Raises ``ValueError`` if either input
    breaks monotonicity.
    """

    def check(phi: Dict[Node, int]) -> None:
        values = [phi[v] for v in ordered_nodes]
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("assignment does not respect the order")

    check(phi1)
    check(phi2)
    chain: List[Dict[Node, int]] = [dict(phi1)]
    current = dict(phi1)
    changed = True
    while changed:
        changed = False
        # settle increases from the top and decreases from the bottom; any
        # node whose move keeps monotonicity is taken — iterate to fixpoint
        for v in ordered_nodes:
            if current[v] == phi2[v]:
                continue
            candidate = dict(current)
            candidate[v] = phi2[v]
            values = [candidate[u] for u in ordered_nodes]
            if all(a < b for a, b in zip(values, values[1:])):
                chain.append(candidate)
                current = candidate
                changed = True
    if current != phi2:  # pragma: no cover - impossible for monotone inputs
        raise AssertionError("interpolation failed to converge")
    return chain


def relabel_single_node(
    assignment: Dict[Node, int],
    node: Node,
    new_id: int,
    ordered_nodes: Sequence[Node],
) -> Dict[Node, int]:
    """Change one node's identifier, checking the order is preserved.

    This is the elementary move in the proof of Lemma 7 (two assignments
    disagreeing on a single node); raises ``ValueError`` if the new
    identifier would break monotonicity or collide.
    """
    out = dict(assignment)
    out[node] = new_id
    values = [out[v] for v in ordered_nodes]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError("relabelling violates the order")
    return out
