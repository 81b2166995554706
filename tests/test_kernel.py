"""Tests for the immutable graph kernel.

Covers the contract every other layer now leans on: JSON round trips
preserve the labelled structure, frozen kernels refuse mutation, builder
forks share structure instead of copying it, and parallel sweeps stay
byte-identical to serial ones.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.grid import GridSpec
from repro.engine.pool import run_sweep
from repro.graphs.digraph import POGraph
from repro.graphs.families import random_bounded_degree_graph, random_loopy_tree
from repro.graphs.kernel import (
    FrozenKernelError,
    GraphBuilder,
    GraphKernel,
    ImproperColoringError,
)
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball
from repro.graphs.ports import po_double_from_ec
from repro.graphs.serialize import GRAPH_FORMAT_V1, from_json, to_json
from tests.oracles import labelled_structure

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=8)


class TestFrozenKernel:
    def test_attribute_assignment_raises(self):
        g = ECGraph()
        g.add_edge("a", "b", 1)
        kernel = g.kernel
        with pytest.raises(FrozenKernelError):
            kernel._slots = {}
        with pytest.raises(FrozenKernelError):
            kernel.anything = 1
        with pytest.raises(FrozenKernelError):
            del kernel._edges

    def test_builder_mutation_never_reaches_the_kernel(self):
        g = random_loopy_tree(5, 2, seed=3)
        kernel = g.kernel
        structure = labelled_structure(kernel)
        n, m = kernel.num_nodes(), kernel.num_edges()
        g.remove_edge(g.edges()[0].eid)
        g.add_edge("fresh1", "fresh2", 999)
        assert labelled_structure(kernel) == structure
        assert (kernel.num_nodes(), kernel.num_edges()) == (n, m)
        kernel.validate()

    def test_freeze_rebase_keeps_builder_usable(self):
        b = GraphBuilder(directed=False)
        b.add_edge("a", "b", 1)
        k1 = b.freeze()
        b.add_edge("b", "c", 2)
        k2 = b.freeze()
        assert k1.num_edges() == 1
        assert k2.num_edges() == 2
        assert labelled_structure(k1) != labelled_structure(k2)

    def test_improper_insert_rejected_by_builder(self):
        b = GraphBuilder(directed=False)
        b.add_edge("a", "b", 1)
        with pytest.raises(ImproperColoringError):
            b.add_edge("a", "c", 1)


class TestStructuralSharing:
    def test_fork_shares_all_untouched_slot_maps(self):
        g = random_bounded_degree_graph(20, 4, seed=11)
        h = g.fork()
        e = next(e for e in h.edges() if not e.is_loop)
        h.remove_edge(e.eid)
        shared = g.kernel.shared_slot_maps(h.kernel)
        assert shared == g.num_nodes() - 2  # only the two endpoints were cloned

    def test_fork_shares_surviving_edge_records(self):
        g = random_loopy_tree(6, 2, seed=5)
        h = g.fork()
        dropped = h.edges()[0].eid
        h.remove_edge(dropped)
        gk, hk = g.kernel, h.kernel
        for e in hk.edges():
            assert gk.edge(e.eid) is e  # identity, not equality

    def test_fork_allocates_proportional_to_touches(self):
        g = random_bounded_degree_graph(30, 4, seed=7)
        kernel = g.kernel
        b = kernel.builder()
        e = next(e for e in b.edges() if not e.is_loop)
        b.remove_edge(e.eid)
        assert b.allocated_nodes == 0
        assert b.allocated_edges == 0
        b.add_edge(e.u, e.v, e.color)
        assert b.allocated_edges == 1

    def test_relabel_leaves_source_untouched(self):
        g = random_loopy_tree(5, 1, seed=9)
        before = labelled_structure(g)
        copy = g.relabel({v: ("copy", v) for v in g.nodes()})
        assert labelled_structure(g) == before
        assert copy.nodes() == [("copy", v) for v in g.nodes()]
        assert [e.eid for e in copy.edges()] == [e.eid for e in g.edges()]
        copy.validate()


class TestJsonRoundTrips:
    @given(seeds, sizes)
    @settings(max_examples=25, deadline=None)
    def test_ec_roundtrip_preserves_digest(self, seed, n):
        g = random_loopy_tree(n, 2, seed=seed)
        back = from_json(to_json(g))
        assert isinstance(back, ECGraph)
        assert labelled_structure(back) == labelled_structure(g)
        assert [e.eid for e in back.edges()] == [e.eid for e in g.edges()]

    @given(seeds, sizes)
    @settings(max_examples=25, deadline=None)
    def test_po_roundtrip_preserves_digest(self, seed, n):
        po = po_double_from_ec(random_loopy_tree(n, 1, seed=seed))
        back = from_json(to_json(po))
        assert isinstance(back, POGraph)
        assert labelled_structure(back) == labelled_structure(po)

    @given(seeds, sizes)
    @settings(max_examples=25, deadline=None)
    def test_kernel_roundtrip_preserves_digest(self, seed, n):
        kernel = random_loopy_tree(n, 1, seed=seed).kernel
        back = from_json(to_json(kernel))
        assert isinstance(back, GraphKernel)
        assert labelled_structure(back) == labelled_structure(kernel)

    @given(seeds, sizes, st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_ball_roundtrip(self, seed, n, radius):
        g = random_loopy_tree(n, 1, seed=seed)
        b = ball(g, g.nodes()[seed % g.num_nodes()], radius)
        back = from_json(to_json(b))
        assert back.root == b.root
        assert back.radius == b.radius
        assert back.distances == b.distances
        assert labelled_structure(back.graph) == labelled_structure(b.graph)

    def test_legacy_v1_documents_still_read(self):
        g = ECGraph()
        g.add_edge(("x", 0), ("x", 1), 2)
        payload = json.loads(to_json(g))
        payload["format"] = GRAPH_FORMAT_V1
        del payload["kind"]
        del payload["directed"]
        back = from_json(json.dumps(payload))
        assert isinstance(back, ECGraph)
        assert labelled_structure(back) == labelled_structure(g)


class TestSweepKeying:
    def test_parallel_sweep_byte_identical_under_kernel_keys(self):
        grid = GridSpec(algorithms=("greedy",), deltas=(3, 4))
        serial = run_sweep(grid, workers=0)
        parallel = run_sweep(grid, workers=2)
        assert json.dumps(serial.rows, sort_keys=True) == json.dumps(
            parallel.rows, sort_keys=True
        )
        assert serial.cache.hits > 0
        assert parallel.cache.hits > 0
