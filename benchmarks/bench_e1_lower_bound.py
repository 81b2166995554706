"""E1 — Theorem 1 / Section 4 (Figures 5-7): the unfold-and-mix adversary.

Paper claim: for every Delta there are witness pairs ``(G_i, H_i)``,
``i = 0 .. Delta-2``, certifying that no EC-algorithm computes maximal FM in
``o(Delta)`` rounds.  Measured: the adversary's achieved witness depth is
exactly ``Delta - 2`` against real algorithms (linear in Delta), with all
machine checks (P1)-(P3) passing, and the construction's cost.
"""

from __future__ import annotations

import pytest

from repro.core.adversary import run_adversary
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.proposal import proposal_algorithm

DELTAS = [3, 4, 5, 6, 7, 8, 10, 12, 14]


@pytest.mark.parametrize("delta", DELTAS)
def test_adversary_depth_vs_delta_greedy(benchmark, record, delta):
    witness = benchmark.pedantic(
        lambda: run_adversary(greedy_color_algorithm(), delta), rounds=1, iterations=1
    )
    assert witness.all_valid
    assert witness.achieved_depth == delta - 2
    top = witness.steps[-1]
    record(
        "E1 lower-bound witness depth (linear in Delta)",
        algorithm="greedy-by-colour",
        delta=delta,
        witness_depth=witness.achieved_depth,
        expected=delta - 2,
        final_graph_nodes=top.graph_g.num_nodes() + top.graph_h.num_nodes(),
        checks="P1+P2+P3 ok",
    )


def test_engine_sweep_e1_grid(benchmark, record, engine_sweep):
    """The whole E1 grid through the experiment engine, one benched sweep.

    Covers the same (algorithm, Delta) cells as the per-cell benches above
    but exercises the production path — sharding, canonical-form caching,
    merged tracing — and records the engine's own series row.
    """
    from repro.engine import e1_grid

    result = benchmark.pedantic(lambda: engine_sweep(e1_grid()), rounds=1, iterations=1)
    assert all(row["status"] == "ok" for row in result.rows)
    assert all(row["witness_depth"] == row["expected_depth"] for row in result.rows)
    record(
        "E1 engine sweep (sharded + cached)",
        cells=len(result.rows),
        workers=result.workers,
        cache_hits=result.cache.hits,
        cache_misses=result.cache.misses,
        hit_rate=f"{result.cache_hit_rate:.0%}",
        all_depths_linear="yes",
    )


@pytest.mark.parametrize("delta", DELTAS)
def test_adversary_depth_vs_delta_proposal(benchmark, record, delta):
    witness = benchmark.pedantic(
        lambda: run_adversary(proposal_algorithm(), delta), rounds=1, iterations=1
    )
    assert witness.all_valid
    assert witness.achieved_depth == delta - 2
    record(
        "E1 lower-bound witness depth (linear in Delta)",
        algorithm="proposal-dynamics",
        delta=delta,
        witness_depth=witness.achieved_depth,
        expected=delta - 2,
        final_graph_nodes=witness.steps[-1].graph_g.num_nodes()
        + witness.steps[-1].graph_h.num_nodes(),
        checks="P1+P2+P3 ok",
    )
