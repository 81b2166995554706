"""Tests for the end-to-end Theorem 1 pipeline (repro.core.theorem, Section 5.5)."""

from __future__ import annotations

import pytest

from repro.core.sim_po_oi import SymmetricOIAdapter
from repro.core.theorem import (
    Refutation,
    chain_id_to_ec,
    chain_oi_to_ec,
    chain_po_to_ec,
    refute,
)
from repro.graphs.families import cycle_graph
from repro.local.algorithm import SimulatedPOWeights
from repro.matching.fm import fm_from_node_outputs
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.naive import ZeroFM
from repro.matching.proposal import ProposalFM


def id_pool(n: int):
    return [1000 + 7 * i for i in range(n)]


class TestChains:
    def test_po_chain_correct(self):
        ec = chain_po_to_ec(SimulatedPOWeights(ProposalFM("PO")))
        g = cycle_graph(6)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_maximal()

    def test_oi_chain_correct(self):
        ec = chain_oi_to_ec(SymmetricOIAdapter(ProposalFM("PO"), t=3))
        g = cycle_graph(6)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_maximal()

    def test_id_chain_correct(self):
        ec = chain_id_to_ec(ProposalFM("ID"), t=3, id_pool=id_pool)
        g = cycle_graph(6)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_maximal()


class TestRefute:
    def test_locality_violation_for_small_claims(self):
        r = refute(greedy_color_algorithm(), claimed_rounds=1, delta=5)
        assert r.kind == "locality-violation"
        assert r.step is not None and r.step.index == 1
        assert "isomorphic radius-1 views" in r.summary()

    def test_consistent_for_honest_claims(self):
        r = refute(greedy_color_algorithm(), claimed_rounds=10, delta=5)
        assert r.kind == "consistent"
        assert r.witness is not None and r.witness.achieved_depth == 3

    def test_incorrect_output_branch(self):
        r = refute(ZeroFM(), claimed_rounds=1, delta=4)
        assert r.kind == "incorrect-output"
        assert r.failure is not None
        assert "not" in r.summary()

    def test_negative_claim_rejected_before_the_adversary_runs(self, monkeypatch):
        import repro.core.theorem as theorem

        def adversary(*args, **kwargs):
            raise AssertionError("the adversary ran")

        monkeypatch.setattr(theorem, "run_adversary", adversary)
        with pytest.raises(ValueError, match="claimed_rounds must be >= 0, got -3"):
            refute(greedy_color_algorithm(), claimed_rounds=-3, delta=3)

    def test_boundary_claim(self):
        """claimed = Delta - 2 is exactly refutable; Delta - 1 is not."""
        r1 = refute(greedy_color_algorithm(), claimed_rounds=3, delta=5)
        assert r1.kind == "locality-violation"
        r2 = refute(greedy_color_algorithm(), claimed_rounds=4, delta=5)
        assert r2.kind == "consistent"


class TestFullPipelineDichotomy:
    """The Section 5.5 backwards reasoning against the real chain."""

    def test_truncated_chain_caught_as_incorrect(self):
        ec = chain_id_to_ec(ProposalFM("ID"), t=3, id_pool=id_pool)
        r = refute(ec, claimed_rounds=3, delta=4)
        assert r.kind == "incorrect-output"

    def test_generous_chain_certified_omega_delta(self):
        ec = chain_id_to_ec(ProposalFM("ID"), t=4, id_pool=id_pool)
        r = refute(ec, claimed_rounds=1, delta=4)
        assert r.kind == "locality-violation"
        assert r.witness.achieved_depth == 2
