"""Tests for the brute-force model checker (repro.core.exhaustive)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.exhaustive import (
    half_integral_grid,
    one_round_universe,
    search_view_function,
    zero_round_impossibility,
)
from repro.graphs.families import cycle_graph, single_node_with_loops


class TestGrid:
    def test_half_integral(self):
        assert half_integral_grid(2) == [Fraction(0), Fraction(1, 2), Fraction(1)]

    def test_sixths(self):
        grid = half_integral_grid(6)
        assert Fraction(1, 3) in grid and Fraction(1, 2) in grid
        assert len(grid) == 7

    @pytest.mark.parametrize("denominator", [0, -2])
    def test_denominator_below_one_names_no_grid(self, denominator):
        # -2 used to give an empty grid (a vacuous IMPOSSIBLE), 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="denominator must be >= 1"):
            half_integral_grid(denominator)

    def test_empty_grid_proves_nothing(self):
        with pytest.raises(ValueError, match="grid is empty"):
            search_view_function(one_round_universe(2), t=1, grid=[])


class TestUniverse:
    def test_counts(self):
        assert len(one_round_universe(2)) == 3 + 6
        # delta=3: 7 one-node graphs + 3 colours x C(4+1,2)... = 37 total
        assert len(one_round_universe(3)) == 37

    def test_degree_bound(self):
        for g in one_round_universe(3):
            assert g.max_degree() <= 3

    def test_rejects_delta_one(self):
        with pytest.raises(ValueError):
            one_round_universe(1)


class TestImpossibility:
    @pytest.mark.parametrize("delta", [2, 3])
    def test_no_one_round_algorithm(self, delta):
        """By exhaustive enumeration: no grid-valued 1-round EC algorithm
        computes maximal FM on degree-<=delta graphs.  For delta = 3 this
        is exactly Theorem 1's bound (> delta - 2 = 1)."""
        out = search_view_function(one_round_universe(delta), t=1, grid=half_integral_grid(6))
        assert out.impossible
        assert out.views >= 3

    def test_one_node_universe_alone_is_satisfiable(self):
        """Sanity: a weak universe does not prove impossibility."""
        universe = [single_node_with_loops(2)]
        out = search_view_function(universe, t=1, grid=half_integral_grid(2))
        assert not out.impossible
        (view, weights), = out.function.items()
        assert sum(weights.values()) == 1

    def test_regular_universe_admits_uniform_solution(self):
        universe = [cycle_graph(4), cycle_graph(6), single_node_with_loops(2)]
        out = search_view_function(universe, t=1, grid=half_integral_grid(2))
        assert not out.impossible
        for weights in out.function.values():
            assert sum(weights.values()) == 1

    def test_found_function_is_valid_on_universe(self):
        """When a function is found, assemble its outputs on each universe
        graph and verify through the standard checkers."""
        from repro.local.views import ec_view_tree
        from repro.matching.fm import fm_from_node_outputs

        universe = [cycle_graph(4), single_node_with_loops(2)]
        out = search_view_function(universe, t=1, grid=half_integral_grid(2))
        assert out.function is not None
        for g in universe:
            outputs = {
                v: dict(out.function[ec_view_tree(g, v, 1)]) for v in g.nodes()
            }
            fm = fm_from_node_outputs(g, outputs)
            assert fm.is_feasible() and fm.is_maximal()


class TestSearchMechanics:
    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            search_view_function([cycle_graph(4)], t=0, grid=half_integral_grid(2))

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            search_view_function([cycle_graph(4)], t=1, grid=[Fraction(3, 2)])

    def test_budget_exhaustion_raises(self):
        with pytest.raises(RuntimeError, match="budget"):
            search_view_function(
                one_round_universe(3), t=1, grid=half_integral_grid(6), max_nodes=5
            )

    def test_radius_two_on_small_universe(self):
        """The machinery works at t = 2 as well (views deepen, same search)."""
        universe = [cycle_graph(4), cycle_graph(6)]
        out = search_view_function(universe, t=2, grid=half_integral_grid(2))
        assert not out.impossible


class TestZeroRounds:
    def test_certificate(self):
        g1, g2, why = zero_round_impossibility()
        assert g1.loop_count("a") == 1
        assert g2.loop_count("b") == 1
        assert "infeasible" in why


class TestFoundFunctionsAlwaysValid:
    """Property: whenever the search reports FOUND, the function really is a
    valid algorithm on its universe (soundness of the search's constraints)."""

    def test_random_universes(self):
        import random

        from repro.graphs.families import (
            cycle_graph as _cycle,
            random_loopy_tree,
            single_node_with_loops as _loops,
        )
        from repro.local.views import ec_view_tree
        from repro.matching.fm import fm_from_node_outputs

        pool = [
            _cycle(4), _cycle(6), _loops(1), _loops(2),
            random_loopy_tree(3, 1, seed=1), random_loopy_tree(4, 2, seed=2),
        ]
        rng = random.Random(11)
        for trial in range(8):
            universe = rng.sample(pool, rng.randint(1, 3))
            out = search_view_function(universe, t=1, grid=half_integral_grid(6))
            if out.impossible:
                continue
            for g in universe:
                outputs = {
                    v: dict(out.function[ec_view_tree(g, v, 1)]) for v in g.nodes()
                }
                fm = fm_from_node_outputs(g, outputs)
                assert fm.is_feasible(), trial
                assert fm.is_maximal(), trial
