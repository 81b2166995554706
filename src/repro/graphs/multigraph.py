"""Edge-coloured undirected multigraphs with loops (EC-graphs).

This module provides :class:`ECGraph`, the fundamental substrate of the
reproduction.  An EC-graph (paper, Section 3.3) is an undirected multigraph
whose edges carry a *proper* edge colouring: any two edges sharing an endpoint
have distinct colours.  Loops are allowed and follow the paper's convention
(Section 3.5, Figure 3): a loop contributes **+1** to the degree of its
endpoint and occupies exactly one colour slot there.

Because the colouring is proper, each node has *at most one* incident edge of
any given colour.  This rigidity is what makes the whole lower-bound machinery
tractable: radius-``t`` views are determined by colour walks, universal covers
unfold deterministically, and the simulator can use colours as ports.

Since the kernel refactor, :class:`ECGraph` is a thin mutable *view* over the
immutable :mod:`repro.graphs.kernel` substrate: mutations go through a
copy-on-write :class:`~repro.graphs.kernel.GraphBuilder`, ``.kernel``
freezes (and caches) the current state as a frozen
:class:`~repro.graphs.kernel.GraphKernel`, and :meth:`ECGraph.fork` derives
an independent graph sharing all untouched structure with this one — which
is also what :meth:`copy` now does.

Example
-------
>>> g = ECGraph()
>>> v = g.add_node("v")
>>> e1 = g.add_edge("v", "v", color=1)   # a loop of colour 1
>>> u = g.add_node("u")
>>> e2 = g.add_edge("v", "u", color=2)
>>> g.degree("v")
2
>>> sorted(g.incident_colors("v"))
[1, 2]
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .kernel import Edge, GraphBuilder, GraphKernel, ImproperColoringError

Node = Hashable
Color = int
EdgeId = int

__all__ = ["Edge", "ECGraph", "ImproperColoringError"]


class ECGraph:
    """A properly edge-coloured undirected multigraph with loops.

    The class enforces properness on insertion: adding an edge of colour ``c``
    at a node that already has an incident edge of colour ``c`` raises
    :class:`ImproperColoringError`.  A loop of colour ``c`` at ``v`` occupies
    the single colour-``c`` slot of ``v`` and counts +1 towards ``degree(v)``.

    Nodes may be any hashable values; edge ids are small integers assigned by
    the graph and stable across copies.
    """

    __slots__ = ("_b", "_k")

    def __init__(self) -> None:
        self._b = GraphBuilder(directed=False)
        self._k: Optional[GraphKernel] = None

    # ------------------------------------------------------------------
    # kernel plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _wrap(cls, builder: GraphBuilder) -> "ECGraph":
        g = cls.__new__(cls)
        g._b = builder
        g._k = None
        return g

    @classmethod
    def from_kernel(cls, kernel: GraphKernel) -> "ECGraph":
        """A mutable view forked from a frozen kernel (shares all structure)."""
        if kernel.directed:
            raise ValueError("ECGraph views are undirected; got a PO kernel")
        g = cls._wrap(kernel.builder())
        g._k = kernel
        return g

    @property
    def kernel(self) -> GraphKernel:
        """The frozen :class:`GraphKernel` snapshot of the current state.

        Computed on first access after any mutation and cached; repeated
        reads (SoA snapshots, network snapshots) are O(1).
        """
        if self._k is None:
            self._k = self._b.freeze()
        return self._k

    def fork(self) -> "ECGraph":
        """An independent graph sharing all current structure with this one.

        The persistent-builder replacement for deep copying: O(1) apart from
        two pointer-level dict copies; per-node slot maps and edge records
        stay shared until either side mutates them.  Node labels, edge ids
        and iteration order are preserved.
        """
        return ECGraph.from_kernel(self.kernel)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, v: Node) -> Node:
        """Add an isolated node (no-op if present).  Returns the node."""
        self._k = None
        return self._b.add_node(v)

    def add_edge(self, u: Node, v: Node, color: Color, eid: Optional[EdgeId] = None) -> EdgeId:
        """Add an edge of the given colour between ``u`` and ``v``.

        ``u == v`` creates a loop.  Raises :class:`ImproperColoringError` if
        either endpoint already has an incident edge of this colour.  An
        explicit ``eid`` may be supplied (used when copying graphs); it must
        be fresh.
        """
        self._k = None
        return self._b.add_edge(u, v, color, eid=eid)

    def remove_edge(self, eid: EdgeId) -> Edge:
        """Remove the edge with id ``eid`` and return its record."""
        self._k = None
        return self._b.remove_edge(eid)

    def remove_node(self, v: Node) -> None:
        """Remove node ``v`` together with all incident edges."""
        self._k = None
        self._b.remove_node(v)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def nodes(self) -> List[Node]:
        """List of all nodes."""
        return self._b.nodes()

    def edges(self) -> List[Edge]:
        """List of all edge records."""
        return self._b.edges()

    def edge(self, eid: EdgeId) -> Edge:
        """The edge record with id ``eid``."""
        return self._b.edge(eid)

    def has_node(self, v: Node) -> bool:
        """Whether ``v`` is a node of this graph."""
        return self._b.has_node(v)

    def has_edge_id(self, eid: EdgeId) -> bool:
        """Whether an edge with id ``eid`` exists."""
        return self._b.has_edge_id(eid)

    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._b.num_nodes()

    def num_edges(self) -> int:
        """Number of edges (loops count once)."""
        return self._b.num_edges()

    def degree(self, v: Node) -> int:
        """Degree of ``v``; loops count +1 (EC convention, paper Section 3.5)."""
        return len(self._b._slots[v])

    def max_degree(self) -> int:
        """Maximum degree over all nodes (0 for the empty graph)."""
        return max((len(s) for s in self._b._slots.values()), default=0)

    def incident_colors(self, v: Node) -> List[Color]:
        """Colours of edges incident to ``v`` (each appears once)."""
        return list(self._b._slots[v].keys())

    def incident_edges(self, v: Node) -> List[Edge]:
        """Edge records incident to ``v``, in colour order."""
        edges = self._b._edges
        return [edges[eid] for _, eid in sorted(self._b._slots[v].items())]

    def edge_at(self, v: Node, color: Color) -> Optional[Edge]:
        """The unique colour-``color`` edge at ``v``, or ``None``."""
        eid = self._b._slots[v].get(color)
        return None if eid is None else self._b._edges[eid]

    def loops_at(self, v: Node) -> List[Edge]:
        """All loops incident to ``v``, in colour order."""
        return [e for e in self.incident_edges(v) if e.is_loop]

    def loop_count(self, v: Node) -> int:
        """Number of loops at ``v``."""
        return len(self.loops_at(v))

    def neighbors(self, v: Node) -> List[Node]:
        """Distinct neighbours of ``v`` (``v`` itself if it has a loop)."""
        seen: List[Node] = []
        for e in self.incident_edges(v):
            w = e.other(v)
            if w not in seen:
                seen.append(w)
        return seen

    def colors(self) -> List[Color]:
        """Sorted list of all colours used in the graph."""
        return sorted({e.color for e in self._b._edges.values()})

    def is_simple(self) -> bool:
        """Whether the graph has no loops and no parallel edges."""
        seen = set()
        for e in self._b._edges.values():
            if e.is_loop:
                return False
            key = frozenset((e.u, e.v))
            if key in seen:
                return False
            seen.add(key)
        return True

    def non_loop_edges(self) -> List[Edge]:
        """All edges that are not loops."""
        return [e for e in self._b._edges.values() if not e.is_loop]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def bfs_distances(self, source: Node, max_dist: Optional[int] = None) -> Dict[Node, int]:
        """Breadth-first distances from ``source``.

        Loops never decrease distances (they connect a node to itself), so
        they are ignored for distance purposes.  If ``max_dist`` is given,
        exploration stops at that radius.
        """
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (max_dist is None or d < max_dist):
            d += 1
            nxt: List[Node] = []
            for v in frontier:
                for e in self.incident_edges(v):
                    w = e.other(v)
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def connected_components(self) -> List[List[Node]]:
        """Connected components as lists of nodes."""
        remaining = set(self._b._slots.keys())
        comps: List[List[Node]] = []
        while remaining:
            src = next(iter(remaining))
            comp = list(self.bfs_distances(src).keys())
            comps.append(comp)
            remaining.difference_update(comp)
        return comps

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        return len(self.connected_components()) <= 1

    def is_tree_ignoring_loops(self) -> bool:
        """Whether the graph with loops removed is a tree (paper property P3)."""
        non_loops = self.non_loop_edges()
        n = self.num_nodes()
        if len(non_loops) != n - 1:
            return False
        return self.is_connected()

    # ------------------------------------------------------------------
    # copying / combining
    # ------------------------------------------------------------------
    def copy(self) -> "ECGraph":
        """A copy preserving node labels and edge ids.

        Now a structurally-shared :meth:`fork` of the frozen kernel rather
        than an edge-by-edge rebuild: O(1) apart from pointer-level dict
        copies.
        """
        return self.fork()

    def relabel(self, mapping: Dict[Node, Node]) -> "ECGraph":
        """Return a copy with nodes relabelled through ``mapping``.

        ``mapping`` must be injective on the node set (``ValueError``
        otherwise); nodes absent from the mapping keep their labels.  Edge
        ids are preserved.  The copy is proper because this graph is, so no
        edge is re-checked.
        """
        new = {v: mapping.get(v, v) for v in self._b._slots}
        if len(set(new.values())) != len(new):
            raise ValueError("relabelling is not injective")
        slots = {new[v]: dict(s) for v, s in self._b._slots.items()}
        edges = {
            eid: Edge(eid, new[e.u], new[e.v], e.color) for eid, e in self._b._edges.items()
        }
        return ECGraph.from_kernel(GraphKernel(False, slots, edges, max(edges, default=-1) + 1))

    def disjoint_union(self, other: "ECGraph", tags: Tuple[Any, Any] = (0, 1)) -> "ECGraph":
        """Disjoint union; nodes become ``(tag, original_label)`` pairs.

        Edge ids are reassigned (ids from ``self`` first, then ``other``).
        """
        g = ECGraph()
        for v in self.nodes():
            g.add_node((tags[0], v))
        for v in other.nodes():
            g.add_node((tags[1], v))
        for e in self.edges():
            g.add_edge((tags[0], e.u), (tags[0], e.v), e.color)
        for e in other.edges():
            g.add_edge((tags[1], e.u), (tags[1], e.v), e.color)
        return g

    def induced_subgraph(self, nodes: Iterable[Node]) -> "ECGraph":
        """Subgraph induced by ``nodes`` (keeps edges with both ends inside)."""
        keep = set(nodes)
        g = ECGraph()
        for v in keep:
            if not self._b.has_node(v):
                raise KeyError(f"{v!r} is not a node")
            g.add_node(v)
        for e in self._b._edges.values():
            if e.u in keep and e.v in keep:
                g.add_edge(e.u, e.v, e.color, eid=e.eid)
        return g

    # ------------------------------------------------------------------
    # validation / dunder
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on corruption."""
        for v, slots in self._b._slots.items():
            for color, eid in slots.items():
                e = self._b._edges[eid]
                assert e.color == color
                assert v in (e.u, e.v)
        for e in self._b._edges.values():
            assert self._b._slots[e.u][e.color] == e.eid
            assert self._b._slots[e.v][e.color] == e.eid

    def __contains__(self, v: Node) -> bool:
        return self._b.has_node(v)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._b._slots)

    def __len__(self) -> int:
        return self._b.num_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ECGraph(n={self.num_nodes()}, m={self.num_edges()}, "
            f"loops={sum(1 for e in self.edges() if e.is_loop)}, "
            f"colors={self.colors()})"
        )
