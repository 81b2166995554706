"""Property-based tests (hypothesis) for core invariants.

Covers the algebraic heart of the reproduction:

* free-group word reduction and the homogeneous order (Appendix A),
* lift invariance of views and algorithms on random loopy trees,
* FM feasibility/maximality of the distributed algorithms on random graphs,
* the propagation principle on random saturated FM pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key

from hypothesis import given, settings, strategies as st

from repro.core.canonical_order import (
    bracket,
    compare_words,
    concat,
    inverse_word,
    reduce_word,
    tree_sort_key,
)
from repro.core.propagation import disagreeing_colors, next_disagreement
from repro.graphs.families import random_bounded_degree_graph, random_loopy_tree
from repro.graphs.lifts import is_covering_map_ec, random_two_lift
from repro.local.views import ec_view_tree
from repro.matching.fm import fm_from_node_outputs
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.proposal import proposal_algorithm
from repro.matching.sequential import greedy_maximal_fm

F = Fraction

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

steps = st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from([1, -1]))
words = st.lists(steps, max_size=8).map(tuple)
reduced_words = words.map(reduce_word)
# colours 10 and 11 sort before 2 and 3 in the slot order (by repr)
order_steps = st.tuples(st.sampled_from([1, 2, 3, 10, 11]), st.sampled_from([1, -1]))
order_words = st.lists(order_steps, max_size=6).map(tuple)


class TestFreeGroup:
    @given(words)
    def test_reduction_idempotent(self, w):
        assert reduce_word(reduce_word(w)) == reduce_word(w)

    @given(words)
    def test_inverse_cancels(self, w):
        assert concat(w, inverse_word(w)) == ()
        assert concat(inverse_word(w), w) == ()

    @given(words, words, words)
    def test_concat_associative(self, a, b, c):
        assert concat(concat(a, b), c) == concat(a, concat(b, c))

    @given(reduced_words)
    def test_bracket_antisymmetric(self, w):
        assert bracket(w) == -bracket(inverse_word(w))

    @given(reduced_words)
    def test_bracket_odd_for_nontrivial(self, w):
        if w:
            assert bracket(w) % 2 != 0

    @given(reduced_words, reduced_words)
    def test_compare_antisymmetric(self, x, y):
        assert compare_words(x, y) == -compare_words(y, x)

    @given(reduced_words, reduced_words, reduced_words)
    @settings(max_examples=200)
    def test_left_invariance(self, x, y, g):
        """Lemma 4 (homogeneity) as a universally quantified property."""
        assert compare_words(x, y) == compare_words(concat(g, x), concat(g, y))

    @given(reduced_words, reduced_words, reduced_words)
    @settings(max_examples=200)
    def test_transitivity(self, x, y, z):
        if compare_words(x, y) == -1 and compare_words(y, z) == -1:
            assert compare_words(x, z) == -1


class TestOrderKey:
    @given(order_words, st.lists(order_words, max_size=10))
    @settings(max_examples=300)
    def test_key_sorts_as_the_comparator(self, prefix, suffixes):
        """The closed-form key and the paper's comparator give the same
        sorted list; the shared prefix puts branch points below the root.
        Words are unreduced as generated."""
        ws = suffixes + [prefix + s for s in suffixes]
        assert sorted(ws, key=tree_sort_key) == sorted(ws, key=cmp_to_key(compare_words))


class TestLiftInvariance:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_views_lift_invariant(self, seed, n):
        g = random_loopy_tree(n, 1, seed=seed)
        lifted, alpha = random_two_lift(g, random.Random(seed + 1))
        assert is_covering_map_ec(lifted, g, alpha)
        for w in lifted.nodes():
            assert ec_view_tree(lifted, w, 2) == ec_view_tree(g, alpha[w], 2)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_greedy_lift_invariant(self, seed):
        g = random_loopy_tree(4, 1, seed=seed)
        lifted, alpha = random_two_lift(g, random.Random(seed))
        base = greedy_color_algorithm().run_on(g)
        up = greedy_color_algorithm().run_on(lifted)
        for w in lifted.nodes():
            assert up[w] == base[alpha[w]]


class TestDistributedFM:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_greedy_always_maximal(self, seed, n, delta):
        g = random_bounded_degree_graph(n, delta, seed=seed)
        fm = fm_from_node_outputs(g, greedy_color_algorithm().run_on(g))
        assert fm.is_feasible()
        assert fm.is_maximal()

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=4, max_value=16),
    )
    @settings(max_examples=20, deadline=None)
    def test_proposal_always_maximal(self, seed, n):
        g = random_bounded_degree_graph(n, 4, seed=seed)
        fm = fm_from_node_outputs(g, proposal_algorithm().run_on(g))
        assert fm.is_feasible()
        assert fm.is_maximal()

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_loopy_trees_fully_saturated(self, seed, n):
        """Lemma 2: on loopy graphs every node is saturated."""
        g = random_loopy_tree(n, 1, seed=seed)
        fm = fm_from_node_outputs(g, greedy_color_algorithm().run_on(g))
        assert fm.is_fully_saturated()


class TestPropagationPrinciple:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_fact3_on_algorithm_pairs(self, seed, n):
        """For any two distinct fully saturating outputs, every saturated
        node with one disagreement has a second one."""
        g = random_loopy_tree(n, 2, seed=seed)
        out1 = greedy_color_algorithm().run_on(g)
        # second saturated FM: sequential greedy in a different edge order
        fm2 = greedy_maximal_fm(g, order=sorted((e.eid for e in g.edges()), reverse=True))
        out2 = {
            v: {e.color: fm2.weight(e.eid) for e in g.incident_edges(v)}
            for v in g.nodes()
        }
        if not fm2.is_fully_saturated():
            return  # propagation needs saturation on both sides
        for v in g.nodes():
            diff = disagreeing_colors(out1, out2, v)
            if diff:
                another = next_disagreement(g, out1, out2, v, incoming=diff[0])
                assert another != diff[0]
