"""Tests for the unfold-and-mix adversary (repro.core.adversary, Section 4).

These are the load-bearing tests of the whole reproduction: the adversary
must reach witness depth Delta-2 against every correct EC algorithm, with
every paper property (P1)-(P3) machine-verified, and must catch incorrect
algorithms with certificates.
"""

from __future__ import annotations

import pytest

from repro.core.adversary import checked_run, run_adversary
from repro.core.witness import AlgorithmFailure, reverify_step
from repro.graphs.families import random_loopy_tree, single_node_with_loops
from repro.graphs.isomorphism import balls_isomorphic
from repro.graphs.loopy import loopiness, min_direct_loops
from repro.graphs.neighborhoods import ball
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.naive import DegreeSplitFM, SelfishFM, ZeroFM
from repro.matching.proposal import proposal_algorithm
from repro.obs.tracer import Tracer
from tests.reverse_greedy import ReverseEdgeGreedy


class TestCheckedRun:
    def test_accepts_correct_output(self):
        g = random_loopy_tree(4, 1, seed=0)
        outputs = checked_run(greedy_color_algorithm(), g)
        assert set(outputs.keys()) == set(g.nodes())

    def test_rejects_non_maximal(self):
        g = single_node_with_loops(2)
        with pytest.raises(AlgorithmFailure, match="non-maximal|unsaturated"):
            checked_run(ZeroFM(), g)

    def test_rejects_inconsistent(self):
        from repro.graphs.families import path_graph

        g = path_graph(3)
        with pytest.raises(AlgorithmFailure, match="inconsistent"):
            checked_run(SelfishFM(), g, require_saturation=False)

    def test_saturation_optional(self):
        from repro.graphs.families import path_graph

        # greedy on a path leaves the ends unsaturated but is maximal: fine
        g = path_graph(4)
        checked_run(greedy_color_algorithm(), g, require_saturation=False)

    def test_colour_that_only_prints_like_its_own_is_inconsistent(self):
        """Node 0 has ``Shade(1)`` and announces ``Shade(0)``: both print
        ``Shade(0)``, yet the node has no such edge.  That is an inconsistent
        output, refuted like any other, not a crash inside the check."""
        from fractions import Fraction

        from repro.graphs.families import path_graph
        from repro.local.algorithm import ECWeightAlgorithm
        from tests.test_differential import Shade, shaded

        class Misnamed(ECWeightAlgorithm):
            name = "misnamed"

            def run_on(self, g):
                return {0: {Shade(0): Fraction(1)}, 1: {Shade(1): Fraction(1)}}

        with pytest.raises(AlgorithmFailure, match="inconsistent"):
            checked_run(Misnamed(), shaded(path_graph(2)), require_saturation=False)


class TestAdversaryDepth:
    @pytest.mark.parametrize("delta", [2, 3, 4, 5, 6, 7])
    def test_greedy_reaches_delta_minus_2(self, delta):
        witness = run_adversary(greedy_color_algorithm(), delta)
        assert witness.achieved_depth == delta - 2
        assert witness.all_valid
        assert len(witness.steps) == delta - 1  # steps 0 .. delta-2

    @pytest.mark.parametrize("delta", [3, 4, 5])
    def test_proposal_reaches_delta_minus_2(self, delta):
        witness = run_adversary(proposal_algorithm(), delta)
        assert witness.achieved_depth == delta - 2
        assert witness.all_valid

    def test_delta_too_small_rejected(self):
        with pytest.raises(ValueError):
            run_adversary(greedy_color_algorithm(), 1)


class TestWitnessProperties:
    """Re-verify the paper's invariants directly on a produced witness."""

    @pytest.fixture(scope="class")
    def witness(self):
        return run_adversary(greedy_color_algorithm(), 6)

    def test_p1_ball_isomorphism(self, witness):
        for step in witness.steps:
            b1 = ball(step.graph_g, step.node_g, step.index)
            b2 = ball(step.graph_h, step.node_h, step.index)
            assert balls_isomorphic(b1, b2)

    def test_p1_outputs_differ(self, witness):
        for step in witness.steps:
            assert step.weight_g != step.weight_h
            # the colour is a loop at both witness nodes
            assert step.graph_g.edge_at(step.node_g, step.color).is_loop
            assert step.graph_h.edge_at(step.node_h, step.color).is_loop

    def test_p2_loop_budget(self, witness):
        for step in witness.steps:
            needed = witness.delta - 1 - step.index
            assert min_direct_loops(step.graph_g) >= needed
            assert min_direct_loops(step.graph_h) >= needed
            assert loopiness(step.graph_h) >= needed

    def test_p3_trees(self, witness):
        for step in witness.steps:
            assert step.graph_g.is_tree_ignoring_loops()
            assert step.graph_h.is_tree_ignoring_loops()

    def test_max_degree_never_exceeds_delta(self, witness):
        for step in witness.steps:
            assert step.graph_g.max_degree() <= witness.delta
            assert step.graph_h.max_degree() <= witness.delta

    def test_graph_sizes_double(self, witness):
        sizes = [s.graph_g.num_nodes() for s in witness.steps]
        assert sizes == [2**i for i in range(len(sizes))]

    def test_conclusion_mentions_depth(self, witness):
        assert f"> {witness.delta - 2} rounds" in witness.conclusion()


class TestAdversaryCatchesFlaws:
    def test_zero_caught(self):
        with pytest.raises(AlgorithmFailure):
            run_adversary(ZeroFM(), 4)

    def test_degree_split_caught(self):
        """A genuine 1-round algorithm, correct on regular graphs, still
        cannot survive: the mixed pair has nodes of degree Delta and
        Delta-1, and degree-splitting leaves the low-degree side short."""
        with pytest.raises(AlgorithmFailure) as info:
            run_adversary(DegreeSplitFM(), 5)
        assert "non-maximal" in str(info.value) or "unsaturated" in str(info.value)

    def test_selfish_caught_as_inconsistent(self):
        with pytest.raises(AlgorithmFailure, match="inconsistent"):
            run_adversary(SelfishFM(), 4)


class TestDeepVerify:
    def test_deep_verify_passes_for_honest_algorithms(self):
        witness = run_adversary(greedy_color_algorithm(), 4, deep_verify=True)
        assert witness.achieved_depth == 2

    def test_deep_verify_catches_lift_cheater(self):
        """An algorithm that peeks at graph size is not lift-invariant and
        deep verification exposes it on the unfolded 2-lift."""
        from fractions import Fraction
        from repro.local.algorithm import ECWeightAlgorithm

        class SizeCheater(ECWeightAlgorithm):
            name = "size-cheater"

            def run_on(self, g):
                n = g.num_nodes()
                out = {}
                for v in g.nodes():
                    colors = sorted(g.incident_colors(v), key=repr)
                    weights = {}
                    remaining = Fraction(1)
                    # saturate, but skew by parity of n so lifts disagree
                    skew = Fraction(1, 2 + (n % 2))
                    for i, c in enumerate(colors):
                        if i == len(colors) - 1:
                            weights[c] = remaining
                        else:
                            weights[c] = remaining * skew
                            remaining -= weights[c]
                    out[v] = weights
                return out

        with pytest.raises(AlgorithmFailure):
            run_adversary(SizeCheater(), 5, deep_verify=True)


def sides(witness):
    """The witness's steps as one letter each: ``b`` (base), ``G`` or ``H``."""
    return "".join(step.side[0] for step in witness.steps)


class TestSideG:
    """Reverse-edge greedy takes side G, which no shipped algorithm does."""

    SIDES = {3: "bG", 4: "bGH", 5: "bGHG", 6: "bGHGG", 7: "bGHGGG", 8: "bGHGGGG"}

    @pytest.mark.parametrize("delta", sorted(SIDES))
    def test_every_step_is_valid_and_reverifies(self, delta):
        witness = run_adversary(ReverseEdgeGreedy(), delta)
        assert sides(witness) == self.SIDES[delta]
        assert all(step.valid for step in witness.steps)
        assert [reverify_step(step, delta) for step in witness.steps] == [
            [] for _ in witness.steps
        ]


def unfold_sides(tracer):
    """Per inductive step, the sides of its ``adversary.unfold`` spans."""
    return [
        [span.attrs["side"] for span in step.children if span.name == "adversary.unfold"]
        for step in tracer.find("adversary.step")
        if step.attrs["index"] >= 1
    ]


class TestUnfoldSpans:
    """An inductive step unfolds only the side the walk keeps; deep
    verification unfolds both parents."""

    @pytest.mark.parametrize(
        "algorithm, delta", [(greedy_color_algorithm, 5), (ReverseEdgeGreedy, 6)]
    )
    def test_one_unfold_per_step_on_the_kept_side(self, algorithm, delta):
        tracer = Tracer()
        witness = run_adversary(algorithm(), delta, tracer=tracer)
        assert unfold_sides(tracer) == [[step.side] for step in witness.steps[1:]]

    def test_deep_verify_unfolds_both_parents(self):
        tracer = Tracer()
        witness = run_adversary(greedy_color_algorithm(), 5, deep_verify=True, tracer=tracer)
        assert sides(witness) == "bHHH"
        assert unfold_sides(tracer) == [["G", "H"]] * 3

    def test_deep_verify_stops_at_the_first_lift_that_differs(self):
        tracer = Tracer()
        with pytest.raises(AlgorithmFailure, match="not lift-invariant: .* 2-lift of G "):
            run_adversary(ReverseEdgeGreedy(), 6, deep_verify=True, tracer=tracer)
        # reverse-edge greedy is central: the first step's G-side lift differs
        assert unfold_sides(tracer) == [["G"]]


class TestDeterminism:
    def test_adversary_is_deterministic(self):
        """Two runs against the same deterministic algorithm produce
        identical witness ladders (weights, colours, graph sizes)."""
        a = run_adversary(greedy_color_algorithm(), 5)
        b = run_adversary(greedy_color_algorithm(), 5)
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert sa.color == sb.color
            assert sa.side == sb.side
            assert (sa.weight_g, sa.weight_h) == (sb.weight_g, sb.weight_h)
            assert sa.graph_g.num_nodes() == sb.graph_g.num_nodes()

    def test_hard_instance_pair_export(self):
        from repro.core.adversary import hard_instance_pair

        G, H, g, h, c = hard_instance_pair(4)
        assert G.max_degree() <= 4 and H.max_degree() <= 4
        assert G.edge_at(g, c).is_loop and H.edge_at(h, c).is_loop
        assert G.is_tree_ignoring_loops() and H.is_tree_ignoring_loops()


class TestMessageAccounting:
    def test_message_totals_tracked(self):
        g = single_node_with_loops(4)
        alg = greedy_color_algorithm()
        alg.run_on(g)
        assert alg.last_message_total is not None
        assert alg.last_message_total >= 4  # one residual per loop colour
