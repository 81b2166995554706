"""Edge-coloured digraphs with loops (PO-graphs).

A PO-graph (paper, Section 3.3 and Figure 2) is a directed multigraph whose
edges carry colours such that

* all *outgoing* edges of a node have pairwise distinct colours, and
* all *incoming* edges of a node have pairwise distinct colours

(an outgoing and an incoming edge at the same node may share a colour).  This
edge-coloured-digraph view is equivalent to the usual port-numbering-with-
orientation definition; the conversions live in :mod:`repro.graphs.ports`.

Loops follow the paper's convention (Section 3.5, Figure 3): a *directed* loop
contributes **+2** to its endpoint's degree — once as the tail (an outgoing
colour slot) and once as the head (an incoming colour slot).

Like :class:`repro.graphs.multigraph.ECGraph`, :class:`POGraph` is a thin
mutable view over the :mod:`repro.graphs.kernel` substrate (directed slot
discipline): ``.kernel`` freezes the current state into a
:class:`~repro.graphs.kernel.GraphKernel` and :meth:`POGraph.fork`/:meth:`copy`
derive structurally-shared copies.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional

from .kernel import DiEdge, GraphBuilder, GraphKernel, ImproperPOColoringError

Node = Hashable
Color = int
EdgeId = int

__all__ = ["DiEdge", "POGraph", "ImproperPOColoringError"]


class POGraph:
    """A PO-graph: directed multigraph with the PO edge-colouring discipline.

    Each node has at most one outgoing arc and at most one incoming arc of any
    given colour; properness is enforced on insertion.  A directed loop at
    ``v`` occupies both the outgoing and the incoming colour-``c`` slot of
    ``v`` and counts +2 towards ``degree(v)``.
    """

    __slots__ = ("_b", "_k")

    def __init__(self) -> None:
        self._b = GraphBuilder(directed=True)
        self._k: Optional[GraphKernel] = None

    # ------------------------------------------------------------------
    # kernel plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(cls, builder: GraphBuilder) -> "POGraph":
        g = cls.__new__(cls)
        g._b = builder
        g._k = None
        return g

    @classmethod
    def from_kernel(cls, kernel: GraphKernel) -> "POGraph":
        """A mutable view forked from a frozen kernel (shares all structure)."""
        if not kernel.directed:
            raise ValueError("POGraph views are directed; got an EC kernel")
        g = cls._wrap(kernel.builder())
        g._k = kernel
        return g

    @property
    def kernel(self) -> GraphKernel:
        """The frozen :class:`GraphKernel` snapshot of the current state."""
        if self._k is None:
            self._k = self._b.freeze()
        return self._k

    def fork(self) -> "POGraph":
        """An independent structurally-shared copy (labels and ids preserved)."""
        return POGraph.from_kernel(self.kernel)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> Node:
        """Add an isolated node (no-op if already present)."""
        self._k = None
        return self._b.add_node(v)

    def add_edge(self, tail: Node, head: Node, color: Color, eid: Optional[EdgeId] = None) -> EdgeId:
        """Add an arc ``tail -> head`` of the given colour.

        Raises :class:`ImproperPOColoringError` if ``tail`` already has an
        outgoing arc of this colour or ``head`` already has an incoming one.
        """
        self._k = None
        return self._b.add_edge(tail, head, color, eid=eid)

    def remove_edge(self, eid: EdgeId) -> DiEdge:
        """Remove the arc with id ``eid`` and return its record."""
        self._k = None
        return self._b.remove_edge(eid)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def nodes(self) -> List[Node]:
        """List of all nodes."""
        return self._b.nodes()

    def edges(self) -> List[DiEdge]:
        """List of all arc records."""
        return self._b.edges()

    def edge(self, eid: EdgeId) -> DiEdge:
        """The arc with id ``eid``."""
        return self._b.edge(eid)

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node."""
        return self._b.has_node(v)

    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._b.num_nodes()

    def num_edges(self) -> int:
        """Number of arcs (a loop counts once as an arc)."""
        return self._b.num_edges()

    def out_colors(self, v: Node) -> List[Color]:
        """Colours of outgoing arcs at ``v``."""
        return [c for (kind, c) in self._b._slots[v] if kind == "out"]

    def in_colors(self, v: Node) -> List[Color]:
        """Colours of incoming arcs at ``v``."""
        return [c for (kind, c) in self._b._slots[v] if kind == "in"]

    def out_edge(self, v: Node, color: Color) -> Optional[DiEdge]:
        """The outgoing colour-``color`` arc at ``v``, or ``None``."""
        eid = self._b._slots[v].get(("out", color))
        return None if eid is None else self._b._edges[eid]

    def in_edge(self, v: Node, color: Color) -> Optional[DiEdge]:
        """The incoming colour-``color`` arc at ``v``, or ``None``."""
        eid = self._b._slots[v].get(("in", color))
        return None if eid is None else self._b._edges[eid]

    def out_edges(self, v: Node) -> List[DiEdge]:
        """Outgoing arcs at ``v`` in colour order (loops included)."""
        edges = self._b._edges
        pairs = sorted(
            (c, eid) for (kind, c), eid in self._b._slots[v].items() if kind == "out"
        )
        return [edges[eid] for _, eid in pairs]

    def in_edges(self, v: Node) -> List[DiEdge]:
        """Incoming arcs at ``v`` in colour order (loops included)."""
        edges = self._b._edges
        pairs = sorted(
            (c, eid) for (kind, c), eid in self._b._slots[v].items() if kind == "in"
        )
        return [edges[eid] for _, eid in pairs]

    def incident_edges(self, v: Node) -> List[DiEdge]:
        """All arcs with ``v`` as tail or head; loops appear once."""
        seen: Dict[EdgeId, DiEdge] = {}
        for e in self.out_edges(v) + self.in_edges(v):
            seen[e.eid] = e
        return list(seen.values())

    def degree(self, v: Node) -> int:
        """PO degree: out-slots + in-slots.  A directed loop counts +2."""
        return len(self._b._slots[v])

    def max_degree(self) -> int:
        """Maximum PO degree over all nodes."""
        return max((len(s) for s in self._b._slots.values()), default=0)

    def loop_count(self, v: Node) -> int:
        """Number of directed loops at ``v``."""
        return sum(1 for e in self.out_edges(v) if e.is_loop)

    def colors(self) -> List[Color]:
        """Sorted list of colours used."""
        return sorted({e.color for e in self._b._edges.values()})

    def neighbors(self, v: Node) -> List[Node]:
        """Distinct nodes adjacent to ``v`` in either direction."""
        seen: List[Node] = []
        for e in self.incident_edges(v):
            w = e.head if e.tail == v else e.tail
            if w not in seen:
                seen.append(w)
        return seen

    # ------------------------------------------------------------------
    # traversal / copy
    # ------------------------------------------------------------------
    def bfs_distances(self, source: Node, max_dist: Optional[int] = None) -> Dict[Node, int]:
        """Undirected BFS distances from ``source`` (arcs traversed both ways)."""
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (max_dist is None or d < max_dist):
            d += 1
            nxt: List[Node] = []
            for v in frontier:
                for w in self.neighbors(v):
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def is_connected(self) -> bool:
        """Whether the underlying undirected graph is connected."""
        if self.num_nodes() == 0:
            return True
        src = next(iter(self._b._slots))
        return len(self.bfs_distances(src)) == self.num_nodes()

    def copy(self) -> "POGraph":
        """A copy preserving labels and edge ids (a structurally-shared fork)."""
        return self.fork()

    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on corruption."""
        for v, slots in self._b._slots.items():
            for (kind, color), eid in slots.items():
                e = self._b._edges[eid]
                assert e.color == color
                assert (e.tail if kind == "out" else e.head) == v
        for e in self._b._edges.values():
            assert self._b._slots[e.tail][("out", e.color)] == e.eid
            assert self._b._slots[e.head][("in", e.color)] == e.eid

    def __contains__(self, v: Node) -> bool:
        return self._b.has_node(v)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._b._slots)

    def __len__(self) -> int:
        return self._b.num_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"POGraph(n={self.num_nodes()}, m={self.num_edges()}, colors={self.colors()})"
