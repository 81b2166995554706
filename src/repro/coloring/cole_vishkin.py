"""Cole-Vishkin colour reduction and 3-colouring of rooted forests.

The classical ``O(log* n)`` symmetry-breaking primitive (used by the
Panconesi-Rizzi ``O(Delta + log* n)`` maximal-matching baseline of the
paper's Section 1.1).  Starting from the unique identifiers, each iteration
re-colours every node from the pair (own colour, parent colour), roughly
halving the number of colour *bits*; once at most 6 colours remain, three
shift-down + recolour phases reduce to 3 colours.

The implementation is a *round-counted local simulation*: per communication
round every node computes its next value from its own state and its forest
parent's previous-round state only (the information a real message exchange
would deliver), and the total number of rounds is returned.  This style is
used for all the ID-model symmetry-breaking substrates; the fractional
matching algorithms that the paper is actually about additionally run as
fully fledged message-passing state machines in :mod:`repro.local`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

Node = Hashable

__all__ = [
    "cv_step_count",
    "cole_vishkin_3color",
    "validate_forest_coloring",
]


def _bit_length_palette(m: int) -> int:
    """Number of bits needed for colours ``0 .. m-1``."""
    return max((m - 1).bit_length(), 1)


def cv_step_count(max_id: int) -> int:
    """Iterations needed to reach at most 6 colours from palette ``0..max_id``.

    Every node computes this locally from the globally known identifier
    bound, so all nodes agree on the schedule.  The count realises the
    ``log*`` behaviour: one iteration maps a ``b``-bit palette to a
    ``ceil(log2 b) + 1``-bit palette.
    """
    steps = 0
    palette = max_id + 1
    while palette > 6:
        bits = _bit_length_palette(palette)
        palette = 2 * bits
        steps += 1
    return steps


def _cv_iterate(color: int, parent_color: int) -> int:
    """One Cole-Vishkin step: index of the lowest differing bit, plus that bit."""
    diff = color ^ parent_color
    i = (diff & -diff).bit_length() - 1  # lowest set bit index
    return 2 * i + ((color >> i) & 1)


def cole_vishkin_3color(
    parent: Dict[Node, Optional[Node]],
    ids: Dict[Node, int],
) -> Tuple[Dict[Node, int], int]:
    """3-colour a rooted forest in ``O(log* n)`` rounds.

    Parameters
    ----------
    parent:
        Parent pointer of every node (``None`` for roots).  Must be acyclic.
    ids:
        Unique non-negative identifiers; the initial colouring.

    Returns
    -------
    (colors, rounds):
        A proper 3-colouring (values ``{0, 1, 2}``) of the forest — adjacent
        (parent, child) pairs receive distinct colours — and the number of
        communication rounds used (CV iterations + 6 clean-up rounds).
    """
    nodes = list(parent.keys())
    colors = {v: ids[v] for v in nodes}
    max_id = max(ids.values(), default=0)
    steps = cv_step_count(max_id)
    rounds = 0

    def parent_color(v: Node, current: Dict[Node, int]) -> int:
        p = parent[v]
        if p is not None:
            return current[p]
        # virtual parent for roots: any colour different from the node's own
        return 0 if current[v] != 0 else 1

    for _ in range(steps):
        colors = {v: _cv_iterate(colors[v], parent_color(v, colors)) for v in nodes}
        rounds += 1

    # shift-down + recolour, removing colours 5, 4, 3 in turn
    for drop in (5, 4, 3):
        shifted = {}
        for v in nodes:
            p = parent[v]
            if p is not None:
                shifted[v] = colors[p]
            else:
                shifted[v] = next(c for c in range(6) if c != colors[v])
        rounds += 1  # the shift-down exchange
        new_colors = {}
        for v in nodes:
            if shifted[v] == drop:
                # after shift-down all children of v share v's old colour and
                # v's parent colour is known; pick a free colour in {0,1,2}
                p = parent[v]
                forbidden = {colors[v]}  # the uniform colour of v's children
                if p is not None:
                    forbidden.add(shifted[p])
                new_colors[v] = next(c for c in range(3) if c not in forbidden)
            else:
                new_colors[v] = shifted[v]
        colors = new_colors
        rounds += 1  # announcing the recolour
    return colors, rounds


def validate_forest_coloring(parent: Dict[Node, Optional[Node]], colors: Dict[Node, int]) -> bool:
    """Whether ``colors`` properly colours the forest's parent-child edges."""
    return all(
        parent[v] is None or colors[v] != colors[parent[v]] for v in parent
    )
