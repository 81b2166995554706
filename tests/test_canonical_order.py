"""Tests for the homogeneous tree order (repro.core.canonical_order, Appendix A)."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from repro.core.canonical_order import (
    bracket,
    compare_words,
    concat,
    inverse_word,
    reduce_word,
    slot_key,
    tree_ball,
    tree_sort_key,
)


class TestWords:
    def test_reduce_cancels_inverses(self):
        assert reduce_word([(1, 1), (1, -1)]) == ()
        assert reduce_word([(1, 1), (2, 1), (2, -1), (1, -1)]) == ()
        assert reduce_word([(1, 1), (1, 1)]) == ((1, 1), (1, 1))

    def test_reduce_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            reduce_word([(1, 0)])

    def test_inverse(self):
        w = ((1, 1), (2, -1))
        assert inverse_word(w) == ((2, 1), (1, -1))
        assert concat(w, inverse_word(w)) == ()

    def test_concat_is_group_multiplication(self):
        a = ((1, 1),)
        b = ((1, -1), (2, 1))
        assert concat(a, b) == ((2, 1),)


class TestBracket:
    def test_identity_is_zero(self):
        assert bracket(()) == 0

    def test_single_steps(self):
        assert bracket(((1, 1),)) == 1
        assert bracket(((1, -1),)) == -1

    def test_brackets_are_odd(self):
        """Totality: the bracket of any non-trivial reduced word is odd."""
        for w in tree_ball(2, 3):
            if w:
                assert bracket(w) % 2 == 1 or bracket(w) % 2 == -1
                assert bracket(w) != 0

    def test_antisymmetry(self):
        for w in tree_ball(2, 3):
            assert bracket(w) == -bracket(inverse_word(w))

    def test_requires_reduced(self):
        with pytest.raises(ValueError):
            bracket([(1, 1), (1, -1)])

    def test_figure10_style_decomposition(self):
        """[[x ~> z]] decomposes along intermediate nodes as in the paper's
        transitivity proof: value(x~>z) = value(x~>v) + bracket at v +
        value(v~>z) when v lies on the path."""
        x = ()
        v = ((1, 1),)
        z = ((1, 1), (2, 1))
        whole = bracket(z)
        first = bracket(v)
        second = bracket(concat(inverse_word(v), z))
        # the missing piece is the interior-node comparison at v
        entering = (1, -1)
        leaving = (2, 1)
        interior = 1 if slot_key(entering) < slot_key(leaving) else -1
        assert whole == first + interior + second


class TestLinearOrder:
    def test_equal_words(self):
        assert compare_words(((1, 1),), ((1, 1),)) == 0

    def test_antisymmetric_total(self):
        words = tree_ball(2, 2)
        for x, y in combinations(words, 2):
            assert compare_words(x, y) == -compare_words(y, x)
            assert compare_words(x, y) != 0

    def test_transitive_exhaustive(self):
        words = tree_ball(2, 2)
        for x, y, z in combinations(words, 3):
            signs = (compare_words(x, y), compare_words(y, z), compare_words(x, z))
            if signs[0] == signs[1] == -1:
                assert signs[2] == -1
            if signs[0] == signs[1] == 1:
                assert signs[2] == 1

    def test_sortable(self):
        words = tree_ball(2, 2)
        ordered = sorted(words, key=tree_sort_key)
        for a, b in zip(ordered, ordered[1:]):
            assert compare_words(a, b) == -1


class TestSortKey:
    """``tree_sort_key`` against the oracle ``compare_words``."""

    @pytest.mark.parametrize("d,radius", [(2, 4), (3, 3)])
    def test_agrees_with_comparator_on_every_pair(self, d, radius):
        keyed = [(w, tree_sort_key(w)) for w in tree_ball(d, radius)]
        for (x, kx), (y, ky) in product(keyed, repeat=2):
            assert (kx < ky) == (compare_words(x, y) == -1)

    def test_key_is_a_tuple_led_by_the_bracket(self):
        for w in tree_ball(3, 3):
            key = tree_sort_key(w)
            assert isinstance(key, tuple) and key[0] == bracket(w)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            tree_sort_key([(1, 0)])
        with pytest.raises(ValueError):
            compare_words([(1, 0)], [(1, 1)])

    def test_unreduced_word_keys_as_its_reduction(self):
        for w in tree_ball(2, 3):
            padded = ((2, -1), (2, 1)) + w + ((1, 1), (3, 1), (3, -1), (1, -1))
            assert tree_sort_key(padded) == tree_sort_key(w)
            assert compare_words(padded, w) == 0


class TestHomogeneity:
    """Lemma 4: the order is invariant under the free group's left action,
    so all ordered neighbourhoods of T are pairwise isomorphic."""

    def test_left_invariance_random(self):
        rng = random.Random(42)
        words = tree_ball(2, 3)
        for _ in range(500):
            x, y = rng.sample(words, 2)
            g = rng.choice(words)
            assert compare_words(x, y) == compare_words(concat(g, x), concat(g, y))

    def test_left_invariance_three_colors(self):
        rng = random.Random(7)
        words = tree_ball(3, 2)
        for _ in range(200):
            x, y = rng.sample(words, 2)
            g = rng.choice(words)
            assert compare_words(x, y) == compare_words(concat(g, x), concat(g, y))

    def test_ordered_neighbourhoods_isomorphic(self):
        """The order type of the radius-1 ball around any node matches the
        order type around the identity (the concrete form of Lemma 4)."""
        d = 2
        steps = [(c, s) for c in range(1, d + 1) for s in (+1, -1)]
        base_ball = [()] + [reduce_word((s,)) for s in steps]
        base_sorted = sorted(base_ball, key=tree_sort_key)
        base_pattern = [base_sorted.index(w) for w in base_ball]
        for g in tree_ball(2, 2):
            shifted = [concat(g, w) for w in base_ball]
            shifted_sorted = sorted(shifted, key=tree_sort_key)
            pattern = [shifted_sorted.index(w) for w in shifted]
            assert pattern == base_pattern
