"""Appendix A in action: the homogeneous linear order on the PO-tree.

The infinite 2d-regular edge-coloured PO-tree T is the Cayley graph of the
free group on d generators.  Lemma 4 needs a linear order on V(T) whose
ordered neighbourhoods all look alike; the paper's combinatorial proof
assigns every path x ~> y an odd integer [[x ~> y]] and declares x < y iff
the value is positive.  This demo:

1. evaluates brackets of short words (a Figure 10-style calculation),
2. sorts the radius-2 ball of T for d = 2 by the order,
3. demonstrates homogeneity: translating a pair of nodes by any group
   element never changes their relative order.

Run:  python examples/canonical_order_demo.py
"""

from __future__ import annotations

import random
from itertools import product

from repro.core.canonical_order import (
    bracket,
    compare_words,
    concat,
    inverse_word,
    reduce_word,
    tree_ball,
    tree_sort_key,
)


def ball_of_radius(d: int, radius: int):
    """All reduced words of length <= radius over d colours, in the order."""
    return sorted(tree_ball(d, radius), key=tree_sort_key)


def pretty(word) -> str:
    if not word:
        return "e"
    return ".".join(f"g{c}" if s > 0 else f"g{c}^-1" for (c, s) in word)


def bracket_table() -> None:
    print("== brackets of short words (odd, antisymmetric) ==")
    for word in [((1, +1),), ((1, -1),), ((2, +1),), ((1, +1), (2, +1)), ((2, -1), (1, -1))]:
        w = reduce_word(word)
        print(f"  [[{pretty(w)}]] = {bracket(w):+d}    [[{pretty(inverse_word(w))}]] = {bracket(inverse_word(w)):+d}")
    print()


def ordered_ball() -> None:
    print("== the radius-2 ball of T (d = 2), sorted by the homogeneous order ==")
    ball = ball_of_radius(2, 2)
    for i, w in enumerate(ball):
        print(f"  {i:>2}: {pretty(w)}")
    print()


def homogeneity() -> None:
    print("== homogeneity: left translation preserves the order ==")
    rng = random.Random(0)
    ball = ball_of_radius(2, 2)
    checks = 0
    for _ in range(2000):
        x, y = rng.sample(ball, 2)
        g = rng.choice(ball)
        before = compare_words(x, y)
        after = compare_words(concat(g, x), concat(g, y))
        assert before == after, (x, y, g)
        checks += 1
    print(f"  {checks} random (x, y, g) triples: compare(x,y) == compare(gx,gy) held every time")
    print("  => all ordered neighbourhoods of T are pairwise isomorphic (Lemma 4)")


def main() -> None:
    bracket_table()
    ordered_ball()
    homogeneity()


if __name__ == "__main__":
    main()
