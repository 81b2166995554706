"""Tests for the OI <= ID simulation (repro.core.sim_oi_id, Section 5.4)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core.canonical_order import compare_words
from repro.core.sim_oi_id import (
    OIFromID,
    ball_size_bound,
    evaluate_id_on_neighbourhood,
    extract_order_invariant_ids,
    lemma6_check,
    lemma7_check,
    loopy_oi_neighbourhood,
    saturation_of_root,
)
from repro.core.sim_po_oi import cover_words, po_algorithm_from_oi
from repro.core.sim_ec_po import ECFromPO
from repro.graphs.families import cycle_graph, single_node_with_loops
from repro.graphs.ports import po_double_from_ec
from repro.local.identifiers import assign_ids_respecting_order, sparse_subset
from repro.matching.fm import fm_from_node_outputs
from repro.matching.naive import ParityTiltFM
from repro.matching.proposal import ProposalFM


def loopy_po():
    """The doubled PO version of a loopy one-node EC graph."""
    return po_double_from_ec(single_node_with_loops(2))


class TestNeighbourhoods:
    def test_structure(self):
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        assert nbhd.root == ()
        assert nbhd.size == nbhd.cover.tree.num_nodes()
        assert nbhd.ordered_nodes[0] is not None
        # canonical order sorts all cover nodes
        assert len(nbhd.ordered_nodes) == nbhd.size

    @pytest.mark.parametrize("graph", [single_node_with_loops(2), cycle_graph(4)], ids=["loopy", "cycle"])
    def test_ordered_nodes_strictly_increase(self, graph):
        """The neighbourhood lists every cover node, ascending in the oracle order."""
        d = po_double_from_ec(graph)
        for t in (1, 2, 3):
            nbhd = loopy_oi_neighbourhood(d, 0, t)
            words = cover_words(d, nbhd.cover)
            assert sorted(nbhd.ordered_nodes) == sorted(words)
            for a, b in zip(nbhd.ordered_nodes, nbhd.ordered_nodes[1:]):
                assert compare_words(words[a], words[b]) == -1

    def test_undirected_is_simple_tree(self):
        import networkx as nx

        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        tree = nbhd.undirected()
        assert nx.is_tree(tree)


class TestBallSizeBound:
    def test_small_values(self):
        assert ball_size_bound(0, 3) == 1
        assert ball_size_bound(3, 0) == 1
        assert ball_size_bound(1, 5) == 2
        assert ball_size_bound(2, 2) == 5  # a path: 1 + 2 + 2

    def test_dominates_actual_covers(self):
        d = loopy_po()
        for radius in (1, 2):
            nbhd = loopy_oi_neighbourhood(d, 0, radius)
            assert nbhd.size <= ball_size_bound(d.max_degree(), radius)


class TestLemma6:
    def test_proposal_saturates_centre(self):
        """The (order-invariant) proposal dynamics saturates the centre of a
        loopy neighbourhood — Lemma 6's conclusion."""
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 3)
        pool = [10 * i + 7 for i in range(nbhd.size)]
        assert lemma6_check(ProposalFM("ID"), nbhd, pool)

    def test_saturation_of_root_flags(self):
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        phi = assign_ids_respecting_order(nbhd.ordered_nodes, range(nbhd.size))
        outputs = evaluate_id_on_neighbourhood(ProposalFM("ID"), nbhd, phi)
        assert saturation_of_root(nbhd, outputs) in (0, 1)


class TestLemma7:
    def test_order_invariant_machine_passes(self):
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        pool = list(range(100, 100 + 3 * nbhd.size, 3))
        assert lemma7_check(ProposalFM("ID"), nbhd, pool, limit=4)

    def test_parity_machine_fails_on_mixed_parity_assignments(self):
        """ParityTiltFM reads identifier values: two order-respecting
        assignments whose parity patterns differ give different root outputs,
        so the machine is not order-invariant on a mixed pool."""
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        all_even = assign_ids_respecting_order(
            nbhd.ordered_nodes, [100 + 2 * i for i in range(nbhd.size)]
        )
        alternating = assign_ids_respecting_order(
            nbhd.ordered_nodes, [100 + 3 * i for i in range(nbhd.size)]
        )
        out_even = evaluate_id_on_neighbourhood(ParityTiltFM(), nbhd, all_even)
        out_alt = evaluate_id_on_neighbourhood(ParityTiltFM(), nbhd, alternating)
        assert out_even[nbhd.root] != out_alt[nbhd.root]

    def test_parity_machine_passes_on_constant_parity_pool(self):
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 2)
        even_pool = list(range(50, 50 + 4 * nbhd.size, 2))
        assert lemma7_check(ParityTiltFM(), nbhd, even_pool, limit=6)


class TestRamseyExtraction:
    def test_extracts_constant_parity_for_tilt_machine(self):
        """Lemma 5, concretely: the Ramsey search finds identifiers on which
        the parity-sensitive machine's saturation indicator is constant."""
        d = loopy_po()
        nbhd = loopy_oi_neighbourhood(d, 0, 1)  # small: exhaustive search ok
        universe = range(20, 40)
        found = extract_order_invariant_ids(
            ParityTiltFM(), [nbhd], universe, target=nbhd.size + 1
        )
        assert found is not None

    def test_order_invariant_machine_trivially_extractable(self):
        nbhd = loopy_oi_neighbourhood(loopy_po(), 0, 1)
        found = extract_order_invariant_ids(
            ProposalFM("ID"), [nbhd], range(10), target=nbhd.size
        )
        assert found is not None


class TestOIFromID:
    def test_rejects_non_id_machines(self):
        with pytest.raises(ValueError):
            OIFromID(ProposalFM("EC"), t=2, id_pool=range(10))

    def test_t_zero_rejected(self):
        with pytest.raises(ValueError):
            OIFromID(ProposalFM("ID"), t=0, id_pool=range(10))

    def test_finite_pool_too_small_raises(self):
        oi = OIFromID(ProposalFM("ID"), t=3, id_pool=[1, 2, 3])
        d = loopy_po()
        from repro.core.sim_po_oi import POFromOI

        with pytest.raises(ValueError, match="identifier pool"):
            POFromOI(oi).run_on(d)

    def test_repeated_pool_identifier_rejected(self):
        """Two cover nodes given one identifier would merge in the ID graph."""
        pool = list(range(1000, 1400))
        pool[14] = pool[13]
        ec = ECFromPO(po_algorithm_from_oi(OIFromID(ProposalFM("ID"), t=3, id_pool=pool)))
        with pytest.raises(ValueError, match="identifier 1013 appears more than once"):
            ec.run_on(cycle_graph(6))

    def test_full_chain_produces_maximal_fm(self):
        oi = OIFromID(ProposalFM("ID"), t=3, id_pool=lambda n: [5 * i for i in range(n)])
        ec = ECFromPO(po_algorithm_from_oi(oi))
        g = cycle_graph(6)
        fm = fm_from_node_outputs(g, ec.run_on(g))
        assert fm.is_feasible() and fm.is_maximal()

    def test_sparse_pool_composition(self):
        """Wiring Lemma 5 + sparse_subset + OIFromID as Section 5.4 does."""
        d = loopy_po()
        nbhd = loopy_oi_neighbourhood(d, 0, 1)
        extracted = extract_order_invariant_ids(
            ProposalFM("ID"), [nbhd], range(40), target=12
        )
        assert extracted is not None
        m = ball_size_bound(d.max_degree(), 1)
        sparse = sparse_subset(extracted, min(m, 2))
        assert len(sparse) >= 1
