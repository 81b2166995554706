"""Tests for Lemma 2 machinery (repro.core.saturation)."""

from __future__ import annotations

import random
from fractions import Fraction

from repro.core.saturation import (
    check_lift_invariance,
    figure4_certificate,
    saturation_indicator,
    simple_unfolding,
    unsaturated_nodes,
)
from repro.graphs.families import (
    cycle_graph,
    random_loopy_tree,
    single_node_with_loops,
)
from repro.graphs.lifts import is_covering_map_ec
from repro.matching.fm import fm_from_node_outputs
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.naive import DegreeSplitFM, ZeroFM

F = Fraction


class TestIndicators:
    def test_unsaturated_nodes(self):
        g = single_node_with_loops(2)
        assert unsaturated_nodes(fm_from_node_outputs(g, {0: {1: F(1, 2), 2: F(1, 4)}})) == [0]
        assert unsaturated_nodes(fm_from_node_outputs(g, {0: {1: F(1, 2), 2: F(1, 2)}})) == []

    def test_saturation_indicator_binary(self):
        g = random_loopy_tree(4, 1, seed=0)
        outputs = greedy_color_algorithm().run_on(g)
        a_star = saturation_indicator(g, outputs)
        assert set(a_star.values()) <= {0, 1}
        assert all(v == 1 for v in a_star.values())  # Lemma 2 on a loopy graph


class TestFigure4:
    def test_certificate_for_non_saturating_algorithm(self):
        """ZeroFM leaves everyone unsaturated; unfolding a loop produces a
        simple-lift witness where two adjacent copies are both unsaturated."""
        g = single_node_with_loops(2)
        cert = figure4_certificate(g, 0, ZeroFM())
        assert cert is not None
        lifted, v1, v2 = cert
        assert lifted.edge_at(v1, 1) is not None  # the unfolded edge joins them
        assert {v1, v2} == {(0, 0), (1, 0)}

    def test_certificate_for_degree_split_on_mixed_degrees(self):
        g = random_loopy_tree(3, 2, seed=1)
        alg = DegreeSplitFM()
        bad = unsaturated_nodes(fm_from_node_outputs(g, alg.run_on(g)))
        if bad:
            cert = figure4_certificate(g, bad[0], alg)
            assert cert is not None

    def test_no_certificate_for_correct_algorithm(self):
        g = single_node_with_loops(3)
        assert figure4_certificate(g, 0, greedy_color_algorithm()) is None

    def test_none_when_no_loop(self):
        g = cycle_graph(4)
        assert figure4_certificate(g, 0, ZeroFM()) is None


class TestSimpleUnfolding:
    def test_result_is_simple(self):
        for seed in range(3):
            g = random_loopy_tree(3, 2, seed=seed)
            lifted, alpha = simple_unfolding(g)
            assert lifted.is_simple()
            assert is_covering_map_ec(lifted, g, alpha)

    def test_size_is_power_of_two_multiple(self):
        g = single_node_with_loops(3)  # 3 loop colours
        lifted, _ = simple_unfolding(g)
        assert lifted.num_nodes() == 8  # 2**3

    def test_loop_free_input_unchanged(self):
        g = cycle_graph(5)
        lifted, alpha = simple_unfolding(g)
        assert lifted.num_nodes() == 5
        assert all(alpha[v] == v for v in lifted.nodes())


class TestLiftInvariance:
    def test_correct_algorithms_pass(self):
        rng = random.Random(1)
        g = random_loopy_tree(4, 1, seed=4)
        assert check_lift_invariance(greedy_color_algorithm(), g, rng) == []

    def test_label_cheater_caught(self):
        """An algorithm peeking at node labels is exposed by random 2-lifts."""
        from repro.local.algorithm import ECWeightAlgorithm

        class LabelCheater(ECWeightAlgorithm):
            name = "label-cheater"

            def run_on(self, g):
                return {
                    v: {
                        c: F(1, 2) if hash(repr(v)) % 2 else F(1, 3)
                        for c in g.incident_colors(v)
                    }
                    for v in g.nodes()
                }

        rng = random.Random(2)
        g = random_loopy_tree(4, 1, seed=5)
        problems = check_lift_invariance(LabelCheater(), g, rng, trials=4)
        assert problems  # caught

    def test_breach_on_a_colour_sharing_its_repr_caught(self):
        """``Shade(2)`` and ``Shade(3)`` both print ``Shade(1)``: an
        algorithm that zeroes ``Shade(2)`` on every lifted node only must
        be caught on both lifted nodes of every trial, not masked by the
        other colour's weight under the same ``repr``."""
        from repro.local.algorithm import ECWeightAlgorithm
        from tests.test_differential import Shade, shaded

        class ShadeCheater(ECWeightAlgorithm):
            name = "shade-cheater"

            def run_on(self, g):
                return {
                    v: {
                        c: F(0) if isinstance(v, tuple) and c == Shade(2) else F(1, 3)
                        for c in g.incident_colors(v)
                    }
                    for v in g.nodes()
                }

        g = shaded(single_node_with_loops(3))
        problems = check_lift_invariance(ShadeCheater(), g, random.Random(0))
        assert len(problems) == 6  # 3 trials, 2 lifted nodes each
