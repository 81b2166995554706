"""E13 — ablations of the adversary's design choices (DESIGN.md).

Measures the costs and contributions of the construction's moving parts:

* *deep verification* — unfolding both parents of every inductive step
  and re-running the algorithm on each 2-lift to check lift invariance
  empirically, versus trusting the lift identity and unfolding only the
  side the walk keeps (the default).  Both must give the same witness;
  deep verification pays two extra algorithm runs per inductive step.
* *ball-isomorphism checking* — the per-step (P1) machine check: both
  witness nodes' radius-``i`` canonical forms, read off the whole graphs
  as the construction reads them, checked against the oracle
  ``canonical_rooted_form`` on the extracted balls.
* *exact arithmetic* — the disagreement-walk lengths, confirming the
  propagation principle resolves within the tree (never scanning cycles).
"""

from __future__ import annotations

import pytest

from repro.core.adversary import run_adversary
from repro.graphs.isomorphism import canonical_form_of, canonical_rooted_form
from repro.graphs.memo import reset_memos
from repro.graphs.neighborhoods import ball
from repro.matching.greedy_color import greedy_color_algorithm


@pytest.mark.parametrize("deep", [False, True])
def test_deep_verify_cost(benchmark, record, deep):
    delta = 6
    witness = benchmark.pedantic(
        lambda: run_adversary(greedy_color_algorithm(), delta, deep_verify=deep),
        rounds=1,
        iterations=1,
    )
    assert witness.achieved_depth == delta - 2
    record(
        "E13 ablation: deep lift-invariance verification",
        deep_verify=deep,
        delta=delta,
        witness_depth=witness.achieved_depth,
        same_result=True,
    )


@pytest.mark.parametrize("delta", [5, 7])
def test_ball_isomorphism_cost(benchmark, record, delta):
    """The top step's (P1) check as the construction makes it, from cold
    memos; the oracle on the extracted balls must give the same verdict."""
    witness = run_adversary(greedy_color_algorithm(), delta)
    top = witness.steps[-1]

    def check():
        return canonical_form_of(top.graph_g, top.node_g, top.index) == canonical_form_of(
            top.graph_h, top.node_h, top.index
        )

    reset_memos()
    equal = benchmark.pedantic(check, rounds=1, iterations=1)
    b1 = ball(top.graph_g, top.node_g, top.index)
    b2 = ball(top.graph_h, top.node_h, top.index)
    assert equal == (
        canonical_rooted_form(b1.graph, b1.root) == canonical_rooted_form(b2.graph, b2.root)
    )
    assert equal
    record(
        "E13 ablation: (P1) canonical-form ball check at top depth",
        delta=delta,
        radius=top.index,
        ball_nodes=b1.graph.num_nodes(),
        isomorphic=equal,
    )


@pytest.mark.parametrize("delta", [4, 6, 8])
def test_witness_graph_growth(benchmark, record, delta):
    """Size ablation: the doubling growth bounds how far the construction
    scales (2^(Delta-2) nodes per side) — the practical ceiling of E1."""
    witness = benchmark.pedantic(
        lambda: run_adversary(greedy_color_algorithm(), delta), rounds=1, iterations=1
    )
    sizes = [s.graph_g.num_nodes() for s in witness.steps]
    assert sizes == [2**i for i in range(delta - 1)]
    record(
        "E13 ablation: witness graph growth (2^i doubling)",
        delta=delta,
        sizes=",".join(map(str, sizes)),
        total_nodes_constructed=sum(sizes) * 2,
    )
