"""The homogeneous linear order on the 2d-regular PO-tree (Appendix A, Lemma 4).

The infinite ``d``-edge-coloured PO-tree ``T`` is the Cayley graph of the
free group on ``d`` generators: each node has, for every colour ``c``, one
outgoing arc (the generator ``g_c``, a step ``(c, +1)``) and one incoming
arc (``g_c^{-1}``, a step ``(c, -1)``).  Nodes are represented as *reduced
words* — tuples of steps with no adjacent inverse pair.

The combinatorial order (paper, Appendix A.2 and Figure 10) assigns every
path ``x ~> y`` the integer

    [[x ~> y]] = sum over path edges of [x <_e y]
               + sum over interior path nodes of [x <_v y]

with the Iverson-style brackets valued in {+1, -1}:

* ``[x <_e y]`` is +1 when the path traverses the arc forward (tail before
  head), -1 backward — the canonical endpoint order of a directed edge;
* ``[x <_v y]`` compares, in a fixed slot order, the slot through which the
  path *enters* ``v`` with the slot through which it *leaves*.

Then ``x < y  iff  [[x ~> y]] > 0``.  Because both ingredients depend only
on colours and directions, the bracket of a path depends only on the reduced
word ``x^{-1} y`` — the order is invariant under the free group's left
action, which is exactly Lemma 4's homogeneity: all ordered neighbourhoods
of ``T`` are pairwise isomorphic.  Antisymmetry, totality (brackets of
non-trivial words are odd) and transitivity are property-tested.

The slot order is :func:`slot_key`'s: colours by ``repr`` (so colour 10
sorts before colour 2), the outgoing slot first.  :func:`bracket` and
:func:`compare_words` are the definition, kept as the oracle; sorting uses
:func:`tree_sort_key`, the closed form ``(bracket(w), seq(w))``.  ``seq``
ranks each step's slot in the slot order rotated to start just above the
slot the path entered by, and ends with END, which sits between the slots
above the entering slot and those below it.  The key is exact:

* Split ``x = p.a`` and ``y = p.b`` at node ``p``.  With ``B`` the bracket,
  ``[[x ~> y]] = B(y) - B(x) + C``, where ``C = +-1`` comes from ``p`` alone.
* If ``a`` and ``b`` are non-empty, ``C = +1`` iff ``a``'s first slot comes
  first in the rotated order.  If ``x = p``, ``C = -1`` when ``b``'s first
  slot is above the entering slot and ``+1`` when below: where END sits.
* Brackets of non-empty words are odd and ``B(epsilon) = 0``, so ``C``
  decides only ties, and the empty word never ties.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

Color = Hashable
Step = Tuple[Color, int]  # (colour, +1 = forward / -1 = backward)
Word = Tuple[Step, ...]

__all__ = [
    "reduce_word",
    "inverse_word",
    "concat",
    "slot_key",
    "bracket",
    "compare_words",
    "tree_sort_key",
    "tree_ball",
]


def reduce_word(steps: Sequence[Step]) -> Word:
    """Cancel adjacent inverse pairs; the free-group normal form."""
    out: List[Step] = []
    for (c, d) in steps:
        if d not in (+1, -1):
            raise ValueError(f"step direction must be +1 or -1, got {d!r}")
        if out and out[-1][0] == c and out[-1][1] == -d:
            out.pop()
        else:
            out.append((c, d))
    return tuple(out)


def tree_ball(d: int, radius: int) -> List[Word]:
    """The nodes of ``T`` within ``radius`` of the identity: the reduced words
    of length ``<= radius`` over colours ``1 .. d``, in tuple order (sort by
    :func:`tree_sort_key` for the homogeneous order)."""
    if d < 1:
        raise ValueError(f"T needs at least 1 generator, got {d}")
    if radius < 0:
        raise ValueError(f"ball radius must be >= 0, got {radius}")
    steps = [(c, s) for c in range(1, d + 1) for s in (+1, -1)]
    words, frontier = {()}, {()}
    for _ in range(radius):
        frontier = {r for w in frontier for step in steps if len(r := reduce_word(w + (step,))) > len(w)}
        words |= frontier
    return sorted(words)


def inverse_word(word: Sequence[Step]) -> Word:
    """The inverse word: reversed steps with flipped directions."""
    return tuple((c, -d) for (c, d) in reversed(list(word)))


def concat(w1: Sequence[Step], w2: Sequence[Step]) -> Word:
    """Reduced concatenation ``w1 . w2`` (group multiplication)."""
    return reduce_word(tuple(w1) + tuple(w2))


def slot_key(step: Step) -> Tuple[str, int]:
    """Fixed total order on the 2d slots of a ``T``-node.

    Slots are ``(colour, direction)`` pairs; the key orders by colour first
    and puts the outgoing slot before the incoming one.  Any fixed,
    colour/direction-determined order yields homogeneity; this choice is the
    module's convention.
    """
    c, d = step
    return (repr(c), -d)


def bracket(word: Sequence[Step]) -> int:
    """``[[epsilon ~> w]]`` — the path value from the identity to node ``w``.

    ``word`` must be reduced (the path along a reduced word is the unique
    simple path in the tree).  The value of a general path ``x ~> y`` is
    ``bracket(reduce(x^{-1} y))`` by translation invariance.
    """
    w = tuple(word)
    if reduce_word(w) != w:
        raise ValueError("bracket expects a reduced word")
    total = 0
    # edge terms: forward arcs are traversed tail->head (+1), backward -1
    for (_, d) in w:
        total += 1 if d == +1 else -1
    # interior node terms: entering slot vs leaving slot at each interior node
    for i in range(len(w) - 1):
        c_in, d_in = w[i]
        entering = (c_in, -d_in)  # the slot of v occupied by the arriving arc
        leaving = w[i + 1]
        total += 1 if slot_key(entering) < slot_key(leaving) else -1
    return total


def compare_words(x: Sequence[Step], y: Sequence[Step]) -> int:
    """Three-way comparison of two ``T``-nodes given as reduced words.

    Returns -1 if ``x`` precedes ``y`` in the homogeneous order, +1 if it
    follows, 0 iff equal.  Computed as the sign of ``[[x ~> y]]``; brackets
    of distinct nodes are odd hence non-zero (totality).
    """
    rx, ry = reduce_word(x), reduce_word(y)
    if rx == ry:
        return 0
    value = bracket(concat(inverse_word(rx), ry))
    if value == 0:  # pragma: no cover - impossible: brackets are odd
        raise AssertionError("bracket of distinct nodes must be non-zero")
    return -1 if value > 0 else 1


def tree_sort_key(word: Sequence[Step]) -> Tuple[int, Tuple[tuple, ...]]:
    """Sort key of the homogeneous order, in one pass: ``(bracket(w), seq(w))``
    for the reduced form ``w`` of ``word`` (see the module docstring).  A bad
    direction raises ``ValueError``, as in :func:`compare_words`."""
    total = 0
    seq: List[tuple] = []
    entering = None  # the slot the path entered the current node by
    for (c, d) in reduce_word(word):
        leaving = slot_key((c, d))
        group = 0
        if entering is not None:  # an interior node: the bracket's slot term
            group = 0 if entering < leaving else 2
            total += 1 if group == 0 else -1
        total += d  # the edge term
        seq.append((group, leaving))
        entering = slot_key((c, -d))
    seq.append((1,))  # END: after the group-0 slots, before the group-2 ones
    return total, tuple(seq)
