"""Tests for the interned-label table (repro.graphs.labels).

The table is the substrate of the SoA kernel core: dense ids feed the
columnar snapshots, the repr-bytes memo feeds canonical sort keys, and the
node/edge token memos feed the ``KERNEL_DIGEST_VERSION`` digests.  These
tests pin the byte-level contract: tokens are exactly the historical
SHA-256 payloads, interning is by equality, and clearing the table can
never change a digest — only force recomputation.
"""

from __future__ import annotations

import hashlib

from repro.graphs.families import cycle_graph, random_loopy_tree
from repro.graphs.labels import LABELS, LabelTable
from repro.graphs.serialize import decode_label, encode_label, graph_from_json, graph_to_json

#: every label shape the construction produces: small ints (colours),
#: strings, None, and the adversary's arbitrarily nested tagged tuples
LABEL_KINDS = [
    0,
    7,
    -3,
    "r",
    "",
    None,
    (0, "x"),
    (1, (0, ("deep", 2))),
    ((),),
    ("mix", 0, None, ("t",)),
]


class TestIntern:
    def test_every_label_kind_round_trips(self):
        table = LabelTable()
        for label in LABEL_KINDS:
            lid = table.intern(label)
            assert table.repr_bytes(label) == repr(label).encode("utf-8")
            assert table.repr_bytes_of(lid) == repr(label).encode("utf-8")

    def test_ids_are_dense_in_first_seen_order(self):
        table = LabelTable()
        lids = [table.intern(label) for label in LABEL_KINDS]
        assert lids == list(range(len(LABEL_KINDS)))
        assert len(table) == len(LABEL_KINDS)

    def test_equal_labels_share_one_id(self):
        table = LabelTable()
        a = table.intern((0, ("x", 1)))
        b = table.intern((0,) + (("x", 1),))  # equal, separately constructed
        assert a == b
        assert len(table) == 1


class TestRacingInterns:
    def test_every_label_keeps_its_own_bytes_and_token(self, race):
        """Threads interning different new labels at once must never hand
        two labels one id (which would give one the other's repr bytes,
        hence a wrong digest)."""
        table = LabelTable()
        threads, per_thread = 8, 5000
        batches = [[("fresh", index, i) for i in range(per_thread)] for index in range(threads)]

        def intern_batch(index):
            for label in batches[index]:
                table.intern(label)

        race(intern_batch, threads)
        reference = LabelTable()
        wrong = [
            label
            for batch in batches
            for label in batch
            if table.repr_bytes(label) != reference.repr_bytes(label)
            or table.node_token(label) != reference.node_token(label)
        ]
        assert wrong == []
        assert len(table) == threads * per_thread


class TestDigestTokens:
    def test_node_token_is_the_historical_payload(self):
        table = LabelTable()
        for label in LABEL_KINDS:
            payload = b"node\x00" + repr(label).encode("utf-8")
            expected = int.from_bytes(hashlib.sha256(payload).digest(), "big")
            assert table.node_token(label) == expected
            # memoized: the second call must agree
            assert table.node_token(label) == expected

    def test_edge_token_is_the_historical_payload(self):
        table = LabelTable()
        u, v, c = (0, "a"), (0, "b"), 3
        a, b = sorted((repr(u).encode("utf-8"), repr(v).encode("utf-8")))
        payload = b"edge\x00" + a + b"\x00" + b + b"\x00" + repr(c).encode("utf-8")
        expected = int.from_bytes(hashlib.sha256(payload).digest(), "big")
        assert table.edge_token((u, v), c, directed=False) == expected

    def test_undirected_token_is_orientation_free(self):
        table = LabelTable()
        assert table.edge_token(("u", "v"), 1, directed=False) == table.edge_token(
            ("v", "u"), 1, directed=False
        )

    def test_directed_token_keeps_tail_head_order(self):
        table = LabelTable()
        fwd = table.edge_token(("u", "v"), 1, directed=True)
        rev = table.edge_token(("v", "u"), 1, directed=True)
        assert fwd != rev
        # and the directed payload uses the ``arc`` tag, so even a
        # self-symmetric orientation differs from the undirected token
        assert table.edge_token(("u", "u"), 1, directed=True) != table.edge_token(
            ("u", "u"), 1, directed=False
        )


class TestClearAndOverflow:
    def test_clear_bumps_generation_and_empties(self):
        table = LabelTable()
        table.intern("x")
        table.node_token("x")
        generation = table.generation
        table.clear()
        assert table.generation == generation + 1
        assert len(table) == 0
        # ids restart densely after a clear
        assert table.intern("y") == 0

    def test_overflow_self_clears(self):
        table = LabelTable(limit=2)
        table.intern("a")
        table.intern("b")
        assert table.generation == 0
        lid = table.intern("c")  # third distinct label trips the limit
        assert table.generation == 1
        assert lid == 0
        assert len(table) == 1
        # re-interning an existing label never clears
        assert table.intern("c") == 0
        assert table.generation == 1

    def test_kernel_digests_are_invariant_under_table_clear(self):
        """Tokens are pure functions of the label, so a clear only costs
        recomputation — the process-wide table may reset at any time."""
        before = random_loopy_tree(5, 2, seed=7).kernel.digest
        LABELS.clear()
        after = random_loopy_tree(5, 2, seed=7).kernel.digest
        assert before == after

    def test_golden_digest_pinned(self):
        """Byte-compat anchor: the digest of a fixture graph must never move
        while ``KERNEL_DIGEST_VERSION`` stays at v1 (the SoA refactor, the
        label table and any future memo must all reproduce it exactly)."""
        assert (
            cycle_graph(4).kernel.digest
            == "a080291dd92e0423b6ada58a82c5e4aa86908d6cb22bb09afd341c520001cd49"
        )
        assert (
            random_loopy_tree(5, 2, seed=7).kernel.digest
            == "2b37ab7efad95f9839cd2cb12ecc536c3db30fda336dcfb70dc4ed24a231464d"
        )


class TestV2Codec:
    """The v2 tagged-label codec must stay the exact inverse pair the label
    table's repr-serialisation sits next to (engine cache entries and graph
    documents share it)."""

    def test_every_label_kind_round_trips_through_codec(self):
        for label in LABEL_KINDS:
            assert decode_label(encode_label(label)) == label

    def test_encode_decode_equality_on_nested_forms(self):
        form = ((1, "loop"), (2, ((3, "cut"),)), (100, ()))
        assert decode_label(encode_label(form)) == form

    def test_graph_round_trip_preserves_digest(self):
        g = random_loopy_tree(4, 1, seed=3)
        nested = g.relabel({v: (0, ("x", v)) for v in g.nodes()})
        back = graph_from_json(graph_to_json(nested))
        assert back.kernel.digest == nested.kernel.digest
