"""The interned-label table: label ⇄ dense int id, with digest-token memos.

Node labels in the adversary ladder are deeply nested tuples whose ``repr``
is O(label size); colours are small ints.  Every hot kernel operation —
digest accumulation on insert/remove, ball extraction, canonical-form
computation — ultimately reduces to *comparing and hashing labels*, so this
module interns each distinct label (and colour) once into a process-wide
:class:`LabelTable` and memoizes everything derived from it:

* a **dense integer id** (``lid``) per distinct label — the currency of the
  structure-of-arrays snapshots in :mod:`repro.graphs.soa`, where per-node
  and per-edge columns hold ``lid`` arrays instead of label objects;
* the serialised ``repr`` bytes (previously the ``_label_bytes`` memo
  inside :mod:`repro.graphs.kernel`, now folded in here);
* the SHA-256 **node token** per label and **edge token** per
  ``(endpoint, endpoint, colour, directedness)`` tuple — the exact values
  :data:`~repro.graphs.kernel.KERNEL_DIGEST_VERSION` digests are
  accumulated from, so a graph rebuilt from already-interned labels never
  reruns a hash.

The memos are observationally transparent (each cached value is a pure
function of the interned labels), so sharing one table per process cannot
change any digest or canonical form — it only deduplicates work.  The
table is bounded: once ``limit`` distinct labels have been interned the
table clears itself and bumps :attr:`LabelTable.generation`; consumers
holding ``lid`` arrays (the SoA snapshots, the canonical plan cache) must
check the generation and rebuild when it moved.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Any, Dict, Hashable, Tuple

Node = Hashable

__all__ = ["LabelTable", "LABELS"]

#: matches the old in-kernel ``_LABEL_CACHE_LIMIT``: generous enough that a
#: full E1 sweep never clears, small enough to bound a pathological run
_DEFAULT_LIMIT = 1 << 20


class LabelTable:
    """Process-wide intern table for graph labels and colours.

    ``lid`` values are dense (0, 1, 2, ...) in first-seen order and stay
    valid until :meth:`clear` runs (overflow or explicit), which bumps
    :attr:`generation`.  Interning is keyed by equality, so two equal
    labels — however they were constructed — share one id, one ``repr``
    serialisation, and one set of digest tokens.

    Racing threads share the table without a lock: a new id comes from
    a counter, and its ``repr`` bytes are stored before the id is
    published with one ``dict.setdefault``, so no two labels share an id
    and whoever finds an id finds its bytes.  (Racing interns of one label
    can leave an id unused.  A :meth:`clear` racing an intern is not
    covered; it only happens at the limit, which no sweep reaches.)
    """

    __slots__ = (
        "limit",
        "generation",
        "_ids",
        "_fresh",
        "_repr_bytes",
        "_node_tokens",
        "_edge_tokens",
    )

    def __init__(self, limit: int = _DEFAULT_LIMIT) -> None:
        self.limit = limit
        self.generation = 0
        self._ids: Dict[Node, int] = {}
        self._fresh = itertools.count()
        self._repr_bytes: Dict[int, bytes] = {}
        self._node_tokens: Dict[int, int] = {}
        #: (lid_a, lid_b, lid_colour, directed) -> SHA-256 token int
        self._edge_tokens: Dict[Tuple[int, int, int, bool], int] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def intern(self, label: Node) -> int:
        """The dense id of ``label``, assigning one on first sight."""
        lid = self._ids.get(label)
        if lid is None:
            if len(self._ids) >= self.limit:
                self.clear()
            fresh = next(self._fresh)
            self._repr_bytes[fresh] = repr(label).encode("utf-8")
            lid = self._ids.setdefault(label, fresh)
        return lid

    def repr_bytes(self, label: Node) -> bytes:
        """Memoized ``repr(label).encode("utf-8")`` (the digest serialisation)."""
        return self._repr_bytes[self.intern(label)]

    def repr_bytes_of(self, lid: int) -> bytes:
        """The serialised ``repr`` bytes of an already-interned id."""
        return self._repr_bytes[lid]

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        """Drop every interned label and memo; invalidates all ids."""
        self.generation += 1
        self._ids.clear()
        self._fresh = itertools.count()
        self._repr_bytes.clear()
        self._node_tokens.clear()
        self._edge_tokens.clear()

    # ------------------------------------------------------------------
    # digest tokens (byte-identical to the historical kernel hashing)
    # ------------------------------------------------------------------
    def node_token(self, label: Node) -> int:
        """SHA-256 token of a node label, as the kernel digest accumulates it."""
        return self.node_token_of(self.intern(label))

    def node_token_of(self, lid: int) -> int:
        """The node token of an already-interned id (skips re-hashing the
        label object — the SoA hot paths hold lid columns, not labels)."""
        token = self._node_tokens.get(lid)
        if token is None:
            payload = b"node\x00" + self._repr_bytes[lid]
            token = int.from_bytes(hashlib.sha256(payload).digest(), "big")
            self._node_tokens[lid] = token
        return token

    def edge_token(self, ends: Tuple[Node, Node], color: Any, directed: bool) -> int:
        """SHA-256 token of an edge record, as the kernel digest accumulates it.

        Undirected tokens sort the two endpoint serialisations (the digest
        is orientation-free); directed tokens keep tail/head order and use
        the ``arc`` tag.  Memoized per ``(lid, lid, colour lid, directed)``,
        so re-grafting an edge between already-seen labels is a dict hit.
        """
        return self.edge_token_of(
            self.intern(ends[0]), self.intern(ends[1]), self.intern(color), directed
        )

    def edge_token_of(self, lid_a: int, lid_b: int, lid_c: int, directed: bool) -> int:
        """The edge token over already-interned endpoint and colour ids."""
        key = (lid_a, lid_b, lid_c, directed)
        token = self._edge_tokens.get(key)
        if token is None:
            if directed:
                a, b = self._repr_bytes[lid_a], self._repr_bytes[lid_b]
                tag = b"arc\x00"
            else:
                a, b = sorted((self._repr_bytes[lid_a], self._repr_bytes[lid_b]))
                tag = b"edge\x00"
            payload = tag + a + b"\x00" + b + b"\x00" + self._repr_bytes[lid_c]
            token = int.from_bytes(hashlib.sha256(payload).digest(), "big")
            self._edge_tokens[key] = token
        return token


#: the process-wide table every kernel, snapshot and plan cache shares
LABELS = LabelTable()
