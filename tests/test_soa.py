"""Tests for the columnar kernel snapshots (repro.graphs.soa).

The SoA layer is the only production path for canonical forms and balls:
the tests here compare it against the object-walking oracles and pin the
sharing discipline — snapshots memoize per frozen kernel, balls memoize by
content digest, and the canonicalisation plan cache recognises isomorphic
shapes.  ``tests/test_differential.py`` runs the same comparisons over
generated inputs.
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
from repro.graphs.labels import LABELS
from repro.graphs.memo import BALLS, reset_memos
from repro.graphs.multigraph import ECGraph
from repro.graphs.soa import (
    _VECTOR_MIN_EDGES,
    SoASnapshot,
    canonical_form_fast,
    extract_ball,
    plan_hit_count,
    snapshot_of,
)
from tests.oracles import reference_ball


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
        with pytest.raises(TypeError, match="undirected"):
            extract_ball(po, "a", 1)

    def test_label_table_clear_invalidates_snapshots(self):
        kernel = random_loopy_tree(4, 1, seed=1).kernel
        stale = snapshot_of(kernel)
        LABELS.clear()
        fresh = snapshot_of(kernel)
        assert fresh is not stale
        assert fresh.generation == LABELS.generation

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
        form = canonical_form_fast(g, 0)
        h = g.relabel({v: ("twin", v) for v in g.nodes()})
        before = plan_hit_count()
        twin_form = canonical_form_fast(h, ("twin", 0))
        assert twin_form == form
        # node labels differ, colour structure agrees: the root shape cons
        # answers without rebuilding — the engine's ``plan_hits`` signal
        assert plan_hit_count() == before + 1
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


def assert_same_extraction(g: ECGraph, v, t: int) -> None:
    sub_kernel, distances = extract_ball(g, v, t)
    ref, ref_dist = reference_ball(g, v, t)
    assert distances == ref_dist
    view = ECGraph.from_kernel(sub_kernel)
    assert view.nodes() == ref.nodes()  # discovery order, not just set
    assert [(e.eid, e.u, e.v, e.color) for e in view.edges()] == [
        (e.eid, e.u, e.v, e.color) for e in ref.edges()
    ]
    assert sub_kernel.digest == ref.kernel.digest
    assert sub_kernel._next_eid == ref.kernel._next_eid


class TestExtractBall:
    def test_matches_builder_reference_small(self):
        g = random_loopy_tree(6, 2, seed=3)
        for v in g.nodes():
            for t in range(4):
                assert_same_extraction(g, v, t)

    def test_matches_builder_reference_vectorised(self):
        g = random_loopy_tree(40, 1, seed=4)
        assert g.num_edges() >= _VECTOR_MIN_EDGES  # NumPy mask path engaged
        for v in (0, 7, 39):
            for t in range(4):
                assert_same_extraction(g, v, t)

    def test_radius_zero_excludes_loops(self):
        sub_kernel, distances = extract_ball(single_node_with_loops(3), 0, 0)
        view = ECGraph.from_kernel(sub_kernel)
        assert view.nodes() == [0]
        assert view.num_edges() == 0
        assert distances == {0: 0}

    def test_derived_snapshot_is_column_identical_to_fresh_build(self):
        """extract_ball attaches a snapshot filtered out of the parent's
        columns; it must match a from-scratch ``_build`` of the sub-kernel
        column for column, or canonical forms over balls could drift."""
        from array import array

        from repro.graphs.soa import SoASnapshot, _build

        columns = (
            "n", "m", "labels", "index_of", "node_lids", "slot_off",
            "slot_color_lids", "slot_colors", "slot_eids", "slot_other",
            "slot_repr_order", "edge_eids", "edge_ui", "edge_vi",
            "edge_color_lids",
        )
        g = random_loopy_tree(12, 2, seed=5)
        for v in (0, 5, 11):
            for t in range(4):
                BALLS.clear()
                sub_kernel, _ = extract_ball(g, v, t)
                derived = sub_kernel._soa
                assert isinstance(derived, SoASnapshot)
                fresh = _build(sub_kernel)
                for name in columns:
                    got, want = getattr(derived, name), getattr(fresh, name)
                    if isinstance(got, array):
                        got, want = list(got), list(want)
                    assert got == want, name

    def test_memo_shares_kernel_but_copies_distances(self):
        g = random_loopy_tree(5, 1, seed=8)
        first_kernel, first_dist = extract_ball(g, 0, 2)
        again_kernel, again_dist = extract_ball(g, 0, 2)
        # the frozen kernel is content-addressed and immutable: shared
        assert again_kernel is first_kernel
        # the distance dict is the caller's to mutate: copied per lookup
        assert again_dist == first_dist
        assert again_dist is not first_dist
        again_dist[0] = 99
        assert extract_ball(g, 0, 2)[1][0] == 0
