"""E8 — Appendix A (Figure 10, Lemma 4): the homogeneous tree order.

Paper claim: the 2d-regular PO-tree admits a linear order whose ordered
neighbourhoods are pairwise isomorphic; the combinatorial construction
assigns each path an odd bracket value.  Measured: order-axiom checks at
scale (antisymmetry, totality, transitivity) and homogeneity over random
translations, plus bracket evaluation cost.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.canonical_order import (
    bracket,
    compare_words,
    concat,
    tree_ball,
    tree_sort_key,
)


@pytest.mark.parametrize("d,radius", [(2, 3), (3, 2)])
def test_order_axioms_exhaustive(benchmark, record, d, radius):
    words = tree_ball(d, radius)

    def verify():
        violations = 0
        for x, y in combinations(words, 2):
            if compare_words(x, y) != -compare_words(y, x) or compare_words(x, y) == 0:
                violations += 1
        return violations

    violations = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert violations == 0
    record(
        "E8 Lemma 4: order axioms on T-balls",
        generators=d,
        radius=radius,
        nodes=len(words),
        pairs=len(words) * (len(words) - 1) // 2,
        violations=violations,
    )


@pytest.mark.parametrize("d", [2, 3])
def test_homogeneity_random(benchmark, record, d):
    words = tree_ball(d, 3)
    rng = random.Random(99)
    triples = [(rng.choice(words), rng.choice(words), rng.choice(words)) for _ in range(1500)]

    def verify():
        bad = 0
        for x, y, g in triples:
            if compare_words(x, y) != compare_words(concat(g, x), concat(g, y)):
                bad += 1
        return bad

    bad = benchmark.pedantic(verify, rounds=1, iterations=1)
    assert bad == 0
    record(
        "E8 Lemma 4: homogeneity (left invariance)",
        generators=d,
        random_triples=len(triples),
        violations=bad,
    )


def test_sorting_a_large_ball(benchmark, record):
    words = tree_ball(2, 5)
    ordered = benchmark.pedantic(lambda: sorted(words, key=tree_sort_key), rounds=1, iterations=1)
    assert len(ordered) == len(words)
    sorted_ok = all(compare_words(a, b) == -1 for a, b in zip(ordered, ordered[1:]))
    assert sorted_ok
    record(
        "E8 sorting T-balls by the homogeneous order",
        generators=2,
        radius=5,
        nodes=len(words),
        sorted_ok=sorted_ok,
    )
