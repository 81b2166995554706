"""Tests for maximum-weight FM solvers (repro.matching.lp)."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.graphs.families import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    single_node_with_loops,
    star_graph,
)
from repro.graphs.multigraph import ECGraph
from repro.matching.lp import fractional_matching_number_exact, max_weight_fm_lp
from repro.matching.sequential import greedy_maximal_fm


class TestLP:
    def test_single_edge(self):
        opt, weights = max_weight_fm_lp(path_graph(2))
        assert opt == pytest.approx(1.0)

    def test_path4(self):
        # P4 has a perfect matching: nu_f = 2
        opt, _ = max_weight_fm_lp(path_graph(4))
        assert opt == pytest.approx(2.0)

    def test_odd_cycle_is_half_integral(self):
        """nu_f(C5) = 5/2: all weights 1/2 — fractional beats integral (2)."""
        opt, _ = max_weight_fm_lp(cycle_graph(5))
        assert opt == pytest.approx(2.5)

    def test_star(self):
        opt, _ = max_weight_fm_lp(star_graph(5))
        assert opt == pytest.approx(1.0)

    def test_loop_saturates_alone(self):
        opt, weights = max_weight_fm_lp(single_node_with_loops(1))
        assert opt == pytest.approx(1.0)

    def test_empty_graph(self):
        assert max_weight_fm_lp(ECGraph()) == (0.0, {})

    def test_lp_weights_feasible(self):
        g = random_bounded_degree_graph(16, 4, seed=1)
        opt, weights = max_weight_fm_lp(g)
        for v in g.nodes():
            load = sum(weights[e.eid] for e in g.incident_edges(v))
            assert load <= 1.0 + 1e-7


class TestExact:
    def test_matches_lp_on_loop_free(self):
        for g in (path_graph(5), cycle_graph(5), cycle_graph(6), complete_graph(4)):
            opt, _ = max_weight_fm_lp(g)
            exact = fractional_matching_number_exact(g)
            assert float(exact) == pytest.approx(opt, abs=1e-6)

    def test_odd_cycle_exact_value(self):
        assert fractional_matching_number_exact(cycle_graph(7)) == Fraction(7, 2)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            fractional_matching_number_exact(single_node_with_loops(1))

    def test_random_graphs_agree(self):
        for seed in range(3):
            g = random_bounded_degree_graph(12, 3, seed=seed)
            opt, _ = max_weight_fm_lp(g)
            exact = fractional_matching_number_exact(g)
            assert float(exact) == pytest.approx(opt, abs=1e-6)


class TestHalfApproximation:
    def test_maximal_fm_is_half_of_optimum(self):
        """Section 1.2: a maximal FM is a 1/2-approximation of the maximum."""
        for seed in range(4):
            g = random_bounded_degree_graph(18, 4, seed=seed)
            fm = greedy_maximal_fm(g)
            opt, _ = max_weight_fm_lp(g)
            assert float(fm.total_weight()) >= opt / 2 - 1e-9


class TestDuality:
    """LP duality nu_f = tau_f (Section 1.2's background identity)."""

    def test_duality_on_samples(self):
        from repro.matching.lp import min_fractional_vertex_cover_lp

        for g in (path_graph(5), cycle_graph(5), cycle_graph(8), star_graph(4)):
            nu, _ = max_weight_fm_lp(g)
            tau, _ = min_fractional_vertex_cover_lp(g)
            assert tau == pytest.approx(nu, abs=1e-6)

    def test_duality_random(self):
        from repro.matching.lp import min_fractional_vertex_cover_lp

        for seed in range(4):
            g = random_bounded_degree_graph(16, 4, seed=seed)
            nu, _ = max_weight_fm_lp(g)
            tau, _ = min_fractional_vertex_cover_lp(g)
            assert tau == pytest.approx(nu, abs=1e-6)

    def test_loop_forces_full_cover_value(self):
        from repro.matching.lp import min_fractional_vertex_cover_lp

        g = single_node_with_loops(1)
        tau, values = min_fractional_vertex_cover_lp(g)
        assert tau == pytest.approx(1.0)
        assert values[0] == pytest.approx(1.0)

    def test_cover_values_feasible(self):
        from repro.matching.lp import min_fractional_vertex_cover_lp

        g = random_bounded_degree_graph(14, 4, seed=9)
        _, values = min_fractional_vertex_cover_lp(g)
        for e in g.edges():
            total = values[e.u] + (0 if e.is_loop else values[e.v])
            assert total >= 1.0 - 1e-7

    def test_empty_graph(self):
        from repro.matching.lp import min_fractional_vertex_cover_lp

        tau, _ = min_fractional_vertex_cover_lp(ECGraph())
        assert tau == 0.0


def test_importing_the_package_loads_no_scipy():
    """Only the LP baselines need scipy, so only calling them loads it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys\n"
        "import repro, repro.cli, repro.service\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
