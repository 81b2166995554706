"""Tests for the columnar kernel snapshots (repro.graphs.soa).

The SoA layer is the only production path for canonical forms: the tests
here compare it against the object-walking oracle and pin the sharing
discipline — snapshots memoize per frozen kernel and the
canonicalisation plan cache recognises isomorphic shapes.
``tests/test_differential.py`` runs the same comparisons over generated
inputs.
"""

from __future__ import annotations

import pytest

from repro.graphs.digraph import POGraph
from repro.graphs.families import (
    cycle_graph,
    path_graph,
    random_loopy_tree,
    single_node_with_loops,
    star_graph,
)
from repro.graphs.isomorphism import canonical_rooted_form
from repro.graphs.memo import reset_memos
from repro.graphs.soa import (
    SoASnapshot,
    canonical_form_fast,
    consed_canonical_form,
    snapshot_of,
)


class TestSnapshot:
    def test_memoized_per_frozen_kernel(self):
        kernel = random_loopy_tree(4, 1, seed=0).kernel
        first = snapshot_of(kernel)
        assert isinstance(first, SoASnapshot)
        assert snapshot_of(kernel) is first

    def test_directed_kernel_has_no_snapshot(self):
        po = POGraph()
        po.add_edge("a", "b", 1)
        with pytest.raises(TypeError, match="undirected"):
            snapshot_of(po.kernel)
        with pytest.raises(TypeError, match="undirected"):
            canonical_form_fast(po, "a")

    def test_columns_mirror_the_object_view(self):
        g = random_loopy_tree(5, 2, seed=2)
        snap = snapshot_of(g.kernel)
        assert snap.n == g.num_nodes()
        assert snap.m == g.num_edges()
        for v in g.nodes():
            i = snap.index_of[v]
            sl = slice(snap.slot_off[i], snap.slot_off[i + 1])
            incident = g.incident_edges(v)
            assert snap.slot_colors[sl] == [e.color for e in incident]
            assert list(snap.slot_eids[sl]) == [e.eid for e in incident]
            assert [snap.labels[j] for j in snap.slot_other[sl]] == [
                e.other(v) for e in incident
            ]


class TestCanonicalFormFast:
    def test_matches_reference_on_loopy_trees(self):
        for seed in range(4):
            g = random_loopy_tree(5, 2, seed=seed)
            for v in g.nodes():
                assert canonical_form_fast(g, v) == canonical_rooted_form(g, v)

    def test_matches_reference_on_fixture_families(self):
        for g in (path_graph(4), star_graph(3), single_node_with_loops(3)):
            for v in g.nodes():
                assert canonical_form_fast(g, v) == canonical_rooted_form(g, v)

    def test_equal_across_relabelling(self):
        g = random_loopy_tree(4, 1, seed=5)
        h = g.relabel({v: ("copy", v) for v in g.nodes()})
        assert canonical_form_fast(g, 0) == canonical_form_fast(h, ("copy", 0))

    def test_cycle_raises_like_the_reference_requires(self):
        with pytest.raises(ValueError, match="cycle"):
            canonical_form_fast(cycle_graph(4), 0)

    def test_root_plan_hit_counted_on_isomorphic_repeat(self):
        reset_memos()
        g = random_loopy_tree(4, 2, seed=6)
        form, hit = consed_canonical_form(g, 0)
        assert not hit
        h = g.relabel({v: ("twin", v) for v in g.nodes()})
        twin_form, twin_hit = consed_canonical_form(h, ("twin", 0))
        assert twin_form == form
        # node labels differ, colour structure agrees: the root shape cons
        # answers without rebuilding — a hit of the engine's form cache
        assert twin_hit
        # consed forms are identical objects, not merely equal
        assert twin_form is form

    def test_foreign_object_raises(self):
        with pytest.raises(AttributeError):
            canonical_form_fast(object(), 0)

    def test_racing_threads_cons_only_right_forms(self, race):
        """Threads consing different shapes at once must never map two
        shapes to one form id: the racing pass and a later serial pass over
        the plans it left behind both match the reference."""
        reset_memos()
        trees = [random_loopy_tree(12, 2, seed=seed) for seed in range(300)]
        expected = [canonical_rooted_form(g, 0) for g in trees]
        threads = 8
        wrong = []

        def canonicalise(index):
            offset = index * len(trees) // threads
            for k in range(len(trees)):
                j = (offset + k) % len(trees)
                if canonical_form_fast(trees[j], 0) != expected[j]:
                    wrong.append(j)

        race(canonicalise, threads)
        assert wrong == []
        serial = [j for j, g in enumerate(trees) if canonical_form_fast(g, 0) != expected[j]]
        assert serial == []
