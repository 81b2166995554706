"""The immutable graph kernel.

Every graph in the reproduction — EC multigraphs, PO digraphs, extracted
balls, universal-cover truncations — is ultimately a *port/colour-labelled
multigraph with loops*: a set of labelled nodes, each owning a small map of
colour slots, and a set of edge records filling those slots.  This module
provides that substrate once, as a pair of classes:

* :class:`GraphKernel` — a **frozen** snapshot.  It owns its slot maps and
  edge table and refuses attribute assignment (:class:`FrozenKernelError`).

* :class:`GraphBuilder` — the **only** mutator.  A builder forked from a
  kernel (:meth:`GraphKernel.builder`) starts as a copy-on-write overlay:
  per-node slot maps are shared *by identity* with the parent kernel until
  the first mutation touches that node, and edge records (frozen dataclass
  instances) are shared forever.  Forking, removing one edge and freezing
  therefore allocates O(touched nodes) fresh objects, not O(graph).
  The Section 4 adversary's unfold and mix moves skip the builder: they
  build their kernels straight from the parents' columns
  (:func:`repro.graphs.soa.join_at_loops`).

Both EC and PO discipline live here, selected by ``directed``:

* undirected (EC): a node's slots are keyed by colour; a loop occupies one
  slot and counts +1 towards the degree (paper, Section 3.5);
* directed (PO): slots are keyed by ``("out", colour)`` / ``("in", colour)``
  pairs; a directed loop occupies both and counts +2.

:class:`repro.graphs.multigraph.ECGraph` and
:class:`repro.graphs.digraph.POGraph` are thin mutable views over a builder;
their public APIs are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

Node = Hashable
Color = Any
EdgeId = int

__all__ = [
    "Edge",
    "DiEdge",
    "FrozenKernelError",
    "ImproperColoringError",
    "ImproperPOColoringError",
    "GraphKernel",
    "GraphBuilder",
]

class FrozenKernelError(TypeError):
    """Raised on any attempt to mutate a frozen :class:`GraphKernel`."""


class ImproperColoringError(ValueError):
    """Raised when an edge insertion would violate proper edge colouring."""


class ImproperPOColoringError(ValueError):
    """Raised when an arc insertion would clash with an existing colour slot."""


@dataclass(frozen=True)
class Edge:
    """An undirected coloured edge.

    Attributes
    ----------
    eid:
        Unique integer id of the edge within its graph.
    u, v:
        Endpoints.  For a loop, ``u == v``.
    color:
        The edge colour (a positive integer in all paper constructions).
    """

    eid: EdgeId
    u: Node
    v: Node
    color: Color

    @property
    def is_loop(self) -> bool:
        """Whether this edge is a loop (both endpoints equal)."""
        return self.u == self.v

    def endpoints(self) -> Tuple[Node, Node]:
        """Return the pair of endpoints ``(u, v)``."""
        return (self.u, self.v)

    def other(self, x: Node) -> Node:
        """Return the endpoint different from ``x`` (itself for a loop)."""
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise KeyError(f"{x!r} is not an endpoint of edge {self.eid}")


@dataclass(frozen=True)
class DiEdge:
    """A directed coloured edge (arc) from ``tail`` to ``head``."""

    eid: EdgeId
    tail: Node
    head: Node
    color: Color

    @property
    def is_loop(self) -> bool:
        """Whether this arc is a directed loop (tail equals head)."""
        return self.tail == self.head


class GraphKernel:
    """A frozen port/colour-labelled multigraph.

    Instances are produced by :meth:`GraphBuilder.freeze` and never mutated:
    attribute assignment raises :class:`FrozenKernelError` and no mutator
    methods exist.  Per-node slot maps and edge records are structurally
    shared with the builder lineage that produced the kernel and with every
    builder forked from it.
    """

    __slots__ = ("_directed", "_slots", "_edges", "_next_eid", "_soa")

    def __init__(self, directed: bool, slots, edges, next_eid: int):
        object.__setattr__(self, "_directed", directed)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_next_eid", next_eid)
        # lazily-built columnar snapshot (repro.graphs.soa); None until the
        # first consumer asks
        object.__setattr__(self, "_soa", None)

    def __setattr__(self, name, value):
        raise FrozenKernelError(
            f"GraphKernel is frozen; cannot set attribute {name!r} "
            f"(fork a GraphBuilder via .builder() to derive a new graph)"
        )

    def __delattr__(self, name):
        raise FrozenKernelError("GraphKernel is frozen; cannot delete attributes")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether this kernel follows the PO (directed) slot discipline."""
        return self._directed

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def nodes(self) -> List[Node]:
        """List of all node labels (insertion order)."""
        return list(self._slots.keys())

    def edges(self) -> List[Any]:
        """List of all edge records (insertion order)."""
        return list(self._edges.values())

    def edge(self, eid: EdgeId):
        """The edge record with id ``eid``."""
        return self._edges[eid]

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node of this kernel."""
        return v in self._slots

    def has_edge_id(self, eid: EdgeId) -> bool:
        """Whether an edge with id ``eid`` exists."""
        return eid in self._edges

    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._slots)

    def num_edges(self) -> int:
        """Number of edge records (loops count once)."""
        return len(self._edges)

    def degree(self, v: Node) -> int:
        """Number of occupied slots at ``v`` (EC: loops +1; PO: loops +2)."""
        return len(self._slots[v])

    def edge_at(self, v: Node, color: Color):
        """Undirected read: the unique colour-``color`` edge at ``v`` or ``None``."""
        if self._directed:
            raise TypeError("edge_at is an undirected read; use out_edge/in_edge")
        eid = self._slots[v].get(color)
        return None if eid is None else self._edges[eid]

    def incident_colors(self, v: Node) -> List[Color]:
        """Undirected read: colours of edges incident to ``v``."""
        if self._directed:
            raise TypeError("incident_colors is an undirected read")
        return list(self._slots[v].keys())

    def out_edge(self, v: Node, color: Color):
        """Directed read: the outgoing colour-``color`` arc at ``v`` or ``None``."""
        if not self._directed:
            raise TypeError("out_edge is a directed read; use edge_at")
        eid = self._slots[v].get(("out", color))
        return None if eid is None else self._edges[eid]

    def in_edge(self, v: Node, color: Color):
        """Directed read: the incoming colour-``color`` arc at ``v`` or ``None``."""
        if not self._directed:
            raise TypeError("in_edge is a directed read; use edge_at")
        eid = self._slots[v].get(("in", color))
        return None if eid is None else self._edges[eid]

    def out_colors(self, v: Node) -> List[Color]:
        """Directed read: colours of outgoing arcs at ``v``."""
        if not self._directed:
            raise TypeError("out_colors is a directed read")
        return [c for (kind, c) in self._slots[v] if kind == "out"]

    def in_colors(self, v: Node) -> List[Color]:
        """Directed read: colours of incoming arcs at ``v``."""
        if not self._directed:
            raise TypeError("in_colors is a directed read")
        return [c for (kind, c) in self._slots[v] if kind == "in"]

    # ------------------------------------------------------------------
    # derivation / diagnostics
    # ------------------------------------------------------------------
    def builder(self) -> "GraphBuilder":
        """Fork a copy-on-write :class:`GraphBuilder` over this kernel.

        Costs two shallow dict copies (pointers only); per-node slot maps
        and edge records stay shared until a mutation touches them.
        """
        return GraphBuilder(directed=self._directed, _base=self)

    def shared_slot_maps(self, other: "GraphKernel") -> int:
        """How many per-node slot maps this kernel shares *by identity* with
        ``other`` — the mechanically honest measure of structural sharing
        (and of the copy work a builder fork avoided)."""
        other_slots = other._slots
        return sum(
            1 for v, m in self._slots.items() if other_slots.get(v) is m
        )

    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on corruption."""
        for v, slots in self._slots.items():
            for key, eid in slots.items():
                record = self._edges[eid]
                if self._directed:
                    kind, color = key
                    assert record.color == color
                    assert (record.tail if kind == "out" else record.head) == v
                else:
                    assert record.color == key
                    assert v in (record.u, record.v)
        for eid, record in self._edges.items():
            assert record.eid == eid
            if self._directed:
                assert self._slots[record.tail][("out", record.color)] == eid
                assert self._slots[record.head][("in", record.color)] == eid
            else:
                assert self._slots[record.u][record.color] == eid
                assert self._slots[record.v][record.color] == eid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "po" if self._directed else "ec"
        return f"GraphKernel({kind}, n={self.num_nodes()}, m={self.num_edges()})"


class GraphBuilder:
    """Copy-on-write mutable overlay producing :class:`GraphKernel` snapshots.

    A fresh builder starts empty; a builder forked from a kernel
    (:meth:`GraphKernel.builder`) shares all of the kernel's per-node slot
    maps and edge records until mutations touch them.  :meth:`freeze` seals
    the current state into a new kernel in O(1) (handing over the dicts) and
    rebases the builder as a fork of that kernel, so a builder can be frozen
    repeatedly while staying usable.
    """

    __slots__ = ("directed", "_slots", "_edges", "_next_eid", "_owned",
                 "allocated_nodes", "allocated_edges")

    def __init__(self, directed: bool = False, _base: Optional[GraphKernel] = None):
        self.directed = directed
        if _base is None:
            self._slots: Dict[Node, Dict[Any, EdgeId]] = {}
            self._edges: Dict[EdgeId, Any] = {}
            self._next_eid = 0
            self._owned: Set[Node] = set()
        else:
            self._slots = dict(_base._slots)
            self._edges = dict(_base._edges)
            self._next_eid = _base._next_eid
            self._owned = set()
        #: fresh slot maps / edge records allocated by this builder since the
        #: last fork or freeze — the observable cost a fork keeps at O(touched)
        self.allocated_nodes = 0
        self.allocated_edges = 0

    # ------------------------------------------------------------------
    # copy-on-write plumbing
    # ------------------------------------------------------------------
    def _own(self, v: Node) -> Dict[Any, EdgeId]:
        """The slot map of ``v``, cloned first if still shared with a kernel."""
        if v not in self._owned:
            self._slots[v] = dict(self._slots[v])
            self._owned.add(v)
        return self._slots[v]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> Node:
        """Add an isolated node (no-op if present).  Returns the node."""
        if v not in self._slots:
            self._slots[v] = {}
            self._owned.add(v)
            self.allocated_nodes += 1
        return v

    def add_edge(self, u: Node, v: Node, color: Color, eid: Optional[EdgeId] = None) -> EdgeId:
        """Add an edge/arc of the given colour; enforces slot properness.

        Undirected builders raise :class:`ImproperColoringError` on a colour
        clash; directed builders treat ``u`` as tail and ``v`` as head and
        raise :class:`ImproperPOColoringError` when the out- or in-slot is
        taken.  An explicit fresh ``eid`` may be supplied.
        """
        self.add_node(u)
        self.add_node(v)
        if self.directed:
            key_u, key_v = ("out", color), ("in", color)
            if key_u in self._slots[u]:
                raise ImproperPOColoringError(
                    f"node {u!r} already has an outgoing arc of colour {color}"
                )
            if key_v in self._slots[v]:
                raise ImproperPOColoringError(
                    f"node {v!r} already has an incoming arc of colour {color}"
                )
        else:
            key_u = key_v = color
            if color in self._slots[u]:
                raise ImproperColoringError(
                    f"node {u!r} already has an incident edge of colour {color}"
                )
            if u != v and color in self._slots[v]:
                raise ImproperColoringError(
                    f"node {v!r} already has an incident edge of colour {color}"
                )
        if eid is None:
            eid = self._next_eid
        elif eid in self._edges:
            raise ValueError(f"edge id {eid} already in use")
        self._next_eid = max(self._next_eid, eid) + 1
        record = DiEdge(eid, u, v, color) if self.directed else Edge(eid, u, v, color)
        self._edges[eid] = record
        self._own(u)[key_u] = eid
        self._own(v)[key_v] = eid
        self.allocated_edges += 1
        return eid

    def remove_edge(self, eid: EdgeId):
        """Remove the edge with id ``eid`` and return its record."""
        record = self._edges.pop(eid)
        if self.directed:
            del self._own(record.tail)[("out", record.color)]
            del self._own(record.head)[("in", record.color)]
        else:
            del self._own(record.u)[record.color]
            if record.u != record.v:
                del self._own(record.v)[record.color]
        return record

    def remove_node(self, v: Node) -> None:
        """Remove node ``v`` together with all incident edges."""
        for eid in sorted(set(self._slots[v].values())):
            self.remove_edge(eid)
        del self._slots[v]
        self._owned.discard(v)

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    def freeze(self) -> GraphKernel:
        """Seal the current state into a :class:`GraphKernel`.

        The kernel takes ownership of the builder's dicts; the builder
        immediately rebases itself as a copy-on-write fork of the new
        kernel, so it stays usable and later mutations can never reach the
        frozen snapshot.
        """
        kernel = GraphKernel(self.directed, self._slots, self._edges, self._next_eid)
        self._slots = dict(self._slots)
        self._edges = dict(self._edges)
        self._owned = set()
        self.allocated_nodes = 0
        self.allocated_edges = 0
        return kernel

    # ------------------------------------------------------------------
    # reads (the views delegate here)
    # ------------------------------------------------------------------
    def nodes(self) -> List[Node]:
        return list(self._slots.keys())

    def edges(self) -> List[Any]:
        return list(self._edges.values())

    def edge(self, eid: EdgeId):
        return self._edges[eid]

    def has_node(self, v: Node) -> bool:
        return v in self._slots

    def has_edge_id(self, eid: EdgeId) -> bool:
        return eid in self._edges

    def num_nodes(self) -> int:
        return len(self._slots)

    def num_edges(self) -> int:
        return len(self._edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "po" if self.directed else "ec"
        return f"GraphBuilder({kind}, n={self.num_nodes()}, m={self.num_edges()})"

