"""E5 — Figure 4 / Lemma 2: loopy graphs force full saturation.

Paper claim: any EC-algorithm for maximal FM saturates every node of a
loopy EC-graph; otherwise unfolding a loop yields a simple lift on which the
output is not maximal.  Measured: full saturation of correct algorithms on
k-loopy graphs, and the explicit Figure-4 certificates produced for
non-saturating algorithms.
"""

from __future__ import annotations

import pytest

from repro.core.saturation import figure4_certificate, unsaturated_nodes
from repro.graphs.families import random_loopy_tree
from repro.matching.fm import fm_from_node_outputs
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.naive import ZeroFM
from repro.matching.proposal import proposal_algorithm


@pytest.mark.parametrize("loops", [1, 2, 3])
def test_correct_algorithms_saturate(benchmark, record, loops):
    g = random_loopy_tree(6, loops, seed=loops)
    greedy = greedy_color_algorithm()
    outputs = benchmark.pedantic(lambda: greedy.run_on(g), rounds=1, iterations=1)
    fm = fm_from_node_outputs(g, outputs)
    assert fm.is_fully_saturated()
    fm2 = fm_from_node_outputs(g, proposal_algorithm().run_on(g))
    assert fm2.is_fully_saturated()
    record(
        "E5 Lemma 2: saturation on k-loopy graphs",
        loopiness=loops,
        nodes=g.num_nodes(),
        greedy_saturated="all",
        proposal_saturated="all",
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_figure4_certificates(benchmark, record, seed):
    g = random_loopy_tree(4, 2, seed=seed)
    alg = ZeroFM()
    bad = unsaturated_nodes(fm_from_node_outputs(g, alg.run_on(g)))
    assert bad
    cert = benchmark.pedantic(
        lambda: figure4_certificate(g, bad[0], alg), rounds=1, iterations=1
    )
    assert cert is not None
    lifted, v1, v2 = cert
    record(
        "E5 Figure 4: refuting lifts for non-saturating algorithms",
        seed=seed,
        unsaturated_nodes=len(bad),
        certificate="2-lift with adjacent unsaturated copies",
        lift_nodes=lifted.num_nodes(),
    )
