"""Columnar (structure-of-arrays) snapshots of frozen graph kernels.

A :class:`~repro.graphs.kernel.GraphKernel` stores a graph as Python dicts
of labelled objects — ideal for copy-on-write forking, hostile to tight
loops: canonicalising a tree walks tuples node-by-node.  This module
builds, per frozen kernel and on first demand, a **SoA snapshot**:
contiguous integer columns (:mod:`array` ``'q'`` buffers, zero-copy
viewable as NumPy arrays) over dense node indices:

* per-node: the label, and a CSR slice of *slot* columns;
* per-slot (CSR, colour-sorted to match ``ECGraph.incident_edges`` order):
  the colour, the edge id, and the dense index of the other endpoint —
  adjacency without touching an ``Edge`` record;
* a second per-node permutation ordering each node's slots by ``repr``
  of the colour, stably, so distinct colours sharing a ``repr`` keep
  their colour order — the sort of
  :func:`repro.graphs.isomorphism.canonical_rooted_form`;
* per-edge: edge id and both endpoint indices, in insertion order.

On top of the snapshot live the construction's production paths:

* :func:`canonical_form_fast` — an iterative, hash-consed canonicaliser,
  the only production implementation of canonical forms.
  Each node's *shape* — its ``(colour, child form id)`` rows in canonical
  order — keys a process-wide plan cache mapping shapes to already-built
  form tuples, so isomorphic subtrees (the G- and H-side balls of every
  adversary step differ only in node labels, never in colour structure)
  are recognised in O(degree) without rebuilding their encodings.  This
  plan cache is the process's one canonical-form memo.  Its keys hold the
  colour objects themselves, so two colours share a row exactly when they
  are equal, never because their ``repr`` agrees.
  :func:`consed_canonical_form` also reports whether the root's shape was
  already consed — a whole-form hit, which
  :class:`repro.engine.cache.CanonicalFormCache` counts.
  Given a ``radius``, the walk stops at that depth, where a node keeps
  only the edge it arrived by: the canonical form of the radius-``t`` ball,
  read off the whole graph without extracting it.
* :func:`join_at_loops` — the kernel behind the adversary's unfold and mix
  moves, with its snapshot derived from the parents' columns.
* :func:`min_direct_loops_fast` and :func:`is_tree_ignoring_loops_fast` —
  the construction's (P2) and (P3) checks, on the columns.

Every undirected kernel has a snapshot.  A directed kernel raises
``TypeError``, a root that is not a node raises ``KeyError``, and colours
that do not sort raise whatever ``sorted`` raises.  The object-walking
:func:`~repro.graphs.isomorphism.canonical_rooted_form`,
:meth:`~repro.graphs.multigraph.ECGraph.is_tree_ignoring_loops` and
:func:`~repro.graphs.loopy.min_direct_loops` stay as the oracles that
``tests/test_differential.py`` compares against; balls
(:func:`~repro.graphs.neighborhoods.ball`) are built with the generic
builder and need no columns.  Snapshots memoize into the kernel's
``_soa`` slot; this module is the only place that fills it.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from .kernel import Edge, GraphKernel

Node = Hashable

__all__ = [
    "SoASnapshot",
    "snapshot_of",
    "canonical_form_fast",
    "consed_canonical_form",
    "join_at_loops",
    "min_direct_loops_fast",
    "is_tree_ignoring_loops_fast",
]

#: payload markers, byte-identical to the canonicaliser's encoding
_LOOP = "loop"
_CUT = "cut"
#: child-form sentinels inside plan-cache shape keys (real ids are >= 0)
_LOOP_FID = -1
_CUT_FID = -2

#: consed forms kept before the plan cache self-clears (a backstop far
#: above any real sweep; clearing only ever costs recomputation)
_PLAN_LIMIT = 1 << 18


class SoASnapshot:
    """Immutable columnar view of one frozen, undirected kernel."""

    __slots__ = (
        "n",
        "m",
        "labels",
        "index_of",
        "slot_off",
        "slot_colors",
        "slot_eids",
        "slot_other",
        "slot_repr_order",
        "edge_eids",
        "edge_ui",
        "edge_vi",
        "_edge_np",
    )

    def __init__(self) -> None:
        self.n = 0
        self.m = 0
        self.labels: List[Node] = []
        self.index_of: Dict[Node, int] = {}
        self.slot_off = array("q", (0,))
        self.slot_colors: List[Any] = []
        self.slot_eids = array("q")
        self.slot_other = array("q")
        self.slot_repr_order = array("q")
        self.edge_eids = array("q")
        self.edge_ui = array("q")
        self.edge_vi = array("q")
        self._edge_np: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def edge_endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Zero-copy int64 views of the edge endpoint columns."""
        if self._edge_np is None:
            self._edge_np = (
                np.frombuffer(self.edge_ui, dtype=np.int64),
                np.frombuffer(self.edge_vi, dtype=np.int64),
            )
        return self._edge_np


def _build(kernel: GraphKernel) -> SoASnapshot:
    slots_map = kernel._slots
    edges_map = kernel._edges

    snap = SoASnapshot()
    labels = list(slots_map.keys())
    index_of = {v: i for i, v in enumerate(labels)}
    snap.labels = labels
    snap.index_of = index_of
    snap.n = len(labels)
    snap.m = len(edges_map)

    off = snap.slot_off
    colors = snap.slot_colors
    eids = snap.slot_eids
    other = snap.slot_other
    repr_order = snap.slot_repr_order
    base = 0
    for v, vi in index_of.items():
        # colour-sorted = the native ``incident_edges`` iteration order
        items = sorted(slots_map[v].items())
        reprs: List[str] = []
        for color, eid in items:
            colors.append(color)
            eids.append(eid)
            record = edges_map[eid]
            w = record.v if record.u == v else record.u
            other.append(vi if w == v else index_of[w])
            reprs.append(repr(color))
        base += len(items)
        off.append(base)
        # canonical order sorts by repr(colour); the stable sort keeps
        # repr-tied colours in colour order
        order = sorted(range(len(items)), key=reprs.__getitem__)
        start = base - len(items)
        repr_order.extend(start + j for j in order)

    edge_eids = snap.edge_eids
    edge_ui = snap.edge_ui
    edge_vi = snap.edge_vi
    for eid, record in edges_map.items():
        edge_eids.append(eid)
        edge_ui.append(index_of[record.u])
        edge_vi.append(index_of[record.v])
    return snap


def snapshot_of(kernel: GraphKernel) -> SoASnapshot:
    """The memoized SoA snapshot of a frozen, undirected kernel.

    Raises ``TypeError`` for a directed kernel, and whatever ``sorted``
    raises when a node's colours do not sort.
    """
    snap = kernel._soa
    if snap is not None:
        return snap
    if kernel._directed:
        raise TypeError("SoA snapshots cover undirected (EC) kernels only")
    snap = _build(kernel)
    object.__setattr__(kernel, "_soa", snap)
    return snap


def _kernel_of(g) -> GraphKernel:
    return g if isinstance(g, GraphKernel) else g.kernel


# ----------------------------------------------------------------------
# plan-cached canonicalisation
# ----------------------------------------------------------------------
class _PlanCache:
    """Hash-consed canonical forms keyed by shape rows.

    ``cons`` maps a node's shape — the tuple of ``(colour, child form id)``
    rows in canonical order — to ``(form id, form)``, the form being the
    canonical tuple itself.  Because equal shapes produce *identical* (not
    merely equal) tuples, consing both deduplicates the O(subtree) tuple
    construction and makes repeat equality checks pointer-fast.  A shape
    determines its form, so an entry never goes stale.

    Racing threads share the table without a lock: a form id is drawn
    from :data:`_FORM_IDS`, which never restarts, so an id can never name
    two shapes, and each entry is published by one ``cons.setdefault``,
    so every thread that conses a shape uses the entry that won.
    """

    __slots__ = ("cons",)

    def __init__(self) -> None:
        self.cons: Dict[Tuple, Tuple[int, Tuple]] = {}

    def refresh(self) -> Dict[Tuple, Tuple[int, Tuple]]:
        """The table to cons into, fresh when it outgrew its backstop."""
        if len(self.cons) > _PLAN_LIMIT:
            self.cons = {}
        return self.cons

    def clear(self) -> None:
        self.cons = {}


_PLANS = _PlanCache()

#: form ids for consed shapes; never restarted, not even by a refresh or
#: ``reset_memos``, so an id held by a racing thread stays unambiguous
_FORM_IDS = itertools.count()


def canonical_form_fast(g, root: Node, radius: Optional[int] = None) -> Tuple:
    """Canonical rooted form of a tree-with-loops, over the SoA snapshot.

    Equal to :func:`repro.graphs.isomorphism.canonical_rooted_form` on
    every input; raises ``ValueError`` when the graph (ignoring loops)
    contains a cycle and ``KeyError`` when ``root`` is not a node.

    With a ``radius`` it is the form of ``ball(g, root, radius)``, read
    off ``g`` itself: the walk stops at depth ``radius``, where a node
    keeps only the edge it arrived by, exactly as it does in the ball.  It
    raises ``ValueError`` exactly when the ball has a cycle (ignoring
    loops), so a cycle beyond the radius goes unseen.
    """
    return consed_canonical_form(g, root, radius)[0]


def consed_canonical_form(
    g, root: Node, radius: Optional[int] = None
) -> Tuple[Tuple, bool]:
    """:func:`canonical_form_fast`, and whether the plan cache already held
    the root's shape (so the whole form was reused, not rebuilt)."""
    if radius is not None and radius < 0:
        raise ValueError("radius must be non-negative")
    snap = snapshot_of(_kernel_of(g))
    return _consed_form(snap, snap.index_of[root], _PLANS.refresh(), radius)


def _consed_form(
    snap: SoASnapshot,
    root_index: int,
    cons: Dict[Tuple, Tuple[int, Tuple]],
    radius: Optional[int] = None,
) -> Tuple[Tuple, bool]:
    off = snap.slot_off
    repr_order = snap.slot_repr_order
    slot_eids = snap.slot_eids
    slot_other = snap.slot_other
    slot_colors = snap.slot_colors
    visited = bytearray(snap.n)

    # frame: [node, arrival eid, cursor, end, shape rows, entries,
    #         pending colour]; a frame's depth is its index in the stack,
    #         and a frame at depth ``radius`` starts complete, holding only
    #         the edge it arrived by
    visited[root_index] = 1
    end = off[root_index] if radius == 0 else off[root_index + 1]
    stack: List[list] = [[root_index, -1, off[root_index], end, [], [], None]]
    while True:
        frame = stack[-1]
        if frame[2] < frame[3]:
            p = repr_order[frame[2]]
            frame[2] += 1
            eid = slot_eids[p]
            color = slot_colors[p]
            if eid == frame[1]:
                frame[4].append((color, _CUT_FID))
                frame[5].append((color, _CUT))
                continue
            child = slot_other[p]
            if child == frame[0]:
                frame[4].append((color, _LOOP_FID))
                frame[5].append((color, _LOOP))
                continue
            if visited[child]:
                raise ValueError(
                    "canonical form undefined: graph contains a cycle "
                    "(ignoring loops); canonical_rooted_form requires a tree"
                )
            visited[child] = 1
            frame[6] = color
            if len(stack) == radius:
                stack.append(
                    [child, eid, 0, 0, [(color, _CUT_FID)], [(color, _CUT)], None]
                )
            else:
                stack.append([child, eid, off[child], off[child + 1], [], [], None])
            continue
        # node complete: cons its shape into a form id
        key = tuple(frame[4])
        entry = cons.get(key)
        hit = entry is not None
        if entry is None:
            entry = cons.setdefault(key, (next(_FORM_IDS), tuple(frame[5])))
        fid, form = entry
        stack.pop()
        if not stack:
            return form, hit
        parent = stack[-1]
        parent[4].append((parent[6], fid))
        parent[5].append((parent[6], form))


# ----------------------------------------------------------------------
# the unfold/mix join, derived from the parents' columns
# ----------------------------------------------------------------------
def join_at_loops(g, g_loop: int, h, h_loop: int) -> Tuple[GraphKernel, int]:
    """``g - e`` and ``h - f`` side by side, joined by one edge at the loops.

    ``e`` (id ``g_loop``) and ``f`` (id ``h_loop``) are loops of one
    colour; the caller checks that.  Node ``v`` of ``g`` becomes ``(0, v)``
    and node ``w`` of ``h`` becomes ``(1, w)``, in that order.  The kept
    edges get fresh ids in their order, ``g``'s first, and the joining
    edge takes the next id.  These are the node order, edge order and edge
    ids of copying both graphs into one builder, minus the loops, and
    adding the joining edge.  ``unfold_loop`` is ``join_at_loops(g, e, g, e)`` and ``mix`` is
    ``join_at_loops(g, e, h, f)``.

    Returns the frozen kernel and the joining edge's id.  The kernel
    carries its snapshot, derived from the parents' columns: the slot and
    edge columns are theirs minus the opened loops, and the joining edge
    takes both loops' slots.  It has the loops' colour, so every node
    keeps its colour order and ``repr`` order, and no slot is sorted or
    ``repr``'d.  Each node's slot map lists its colours in order.  Colours
    that do not sort raise, as :func:`snapshot_of` does.
    """
    gk, hk = _kernel_of(g), _kernel_of(h)
    gs, hs = snapshot_of(gk), snapshot_of(hk)
    join_eid = gs.m + hs.m - 2
    # the joining edge's ends, as indices of the joined graph
    g_anchor = gs.index_of[gk._edges[g_loop].u]
    h_anchor = gs.n + hs.index_of[hk._edges[h_loop].u]
    g_cols, g_colors = _side_columns(gs, gk, g_loop, 0, 0, 0, h_anchor, join_eid)
    h_cols, h_colors = _side_columns(
        hs, hk, h_loop, gs.n, gs.m - 1, gs.slot_off[gs.n], g_anchor, join_eid
    )

    child = SoASnapshot()
    labels = [(0, v) for v in gs.labels] + [(1, w) for w in hs.labels]
    child.labels = labels
    child.index_of = dict(zip(labels, range(len(labels))))
    child.n = len(labels)
    child.m = join_eid + 1
    child.slot_colors = gs.slot_colors + hs.slot_colors
    slot_off, slot_eids, slot_other, repr_order, edge_ui, edge_vi = map(
        np.concatenate, zip(g_cols, h_cols)
    )
    child.slot_off = _column(np.concatenate(((0,), slot_off)))
    child.slot_eids = _column(slot_eids)
    child.slot_other = _column(slot_other)
    child.slot_repr_order = _column(repr_order)
    child.edge_eids = array("q", range(child.m))
    child.edge_ui = _column(np.concatenate((edge_ui, (g_anchor,))))
    child.edge_vi = _column(np.concatenate((edge_vi, (h_anchor,))))

    colors = child.slot_colors
    eids = slot_eids.tolist()
    off = child.slot_off
    slots = {
        v: dict(zip(colors[lo:hi], eids[lo:hi]))
        for v, lo, hi in zip(labels, off, off[1:])
    }
    edge_colors = g_colors + h_colors
    edge_colors.append(gk._edges[g_loop].color)
    label = labels.__getitem__
    records = map(
        Edge,
        child.edge_eids,
        map(label, child.edge_ui),
        map(label, child.edge_vi),
        edge_colors,
    )
    edges = dict(zip(child.edge_eids, records))
    kernel = GraphKernel(False, slots, edges, child.m)
    object.__setattr__(kernel, "_soa", child)
    return kernel, join_eid


def _side_columns(
    snap: SoASnapshot,
    kernel: GraphKernel,
    loop: int,
    node_base: int,
    eid_base: int,
    slot_base: int,
    far: int,
    join_eid: int,
):
    """One side's share of a joined snapshot's columns, and its edge colours.

    Returns the ``slot_off`` (without its leading 0), ``slot_eids``,
    ``slot_other``, ``slot_repr_order``, ``edge_ui`` and ``edge_vi``
    columns as NumPy arrays, and the kept edges' colours in order.  Node
    indices shift by ``node_base``, slots by ``slot_base``, and the kept
    edges are renumbered from ``eid_base`` in order.  The loop's one slot
    takes the joining edge, whose far end is index ``far``.
    """
    edge_eids = np.frombuffer(snap.edge_eids, dtype=np.int64)
    kept = edge_eids != loop
    renumber = np.empty(int(edge_eids.max()) + 1, dtype=np.int64)
    renumber[edge_eids[kept]] = np.arange(eid_base, eid_base + snap.m - 1)
    renumber[loop] = join_eid
    slot_eids = renumber[np.frombuffer(snap.slot_eids, dtype=np.int64)]
    slot_other = np.frombuffer(snap.slot_other, dtype=np.int64) + node_base
    slot_other[slot_eids == join_eid] = far
    ui, vi = snap.edge_endpoint_arrays()
    columns = (
        np.frombuffer(snap.slot_off, dtype=np.int64)[1:] + slot_base,
        slot_eids,
        slot_other,
        np.frombuffer(snap.slot_repr_order, dtype=np.int64) + slot_base,
        ui[kept] + node_base,
        vi[kept] + node_base,
    )
    return columns, [record.color for record in kernel._edges.values() if record.eid != loop]


def _column(values: np.ndarray) -> array:
    """An ``int64`` NumPy array as a snapshot column."""
    return array("q", np.asarray(values, dtype=np.int64).tobytes())


# ----------------------------------------------------------------------
# the construction's (P2) and (P3) checks, on the columns
# ----------------------------------------------------------------------
def min_direct_loops_fast(g) -> int:
    """The fewest loops at any node of ``g`` (0 for the empty graph).

    Equal to :func:`repro.graphs.loopy.min_direct_loops`; a loop is an
    edge whose two endpoint indices agree.
    """
    snap = snapshot_of(_kernel_of(g))
    if snap.n == 0:
        return 0
    ui, vi = snap.edge_endpoint_arrays()
    return int(np.bincount(ui[ui == vi], minlength=snap.n).min())


def is_tree_ignoring_loops_fast(g) -> bool:
    """Whether ``g`` with its loops removed is a tree (property (P3)).

    Equal to :meth:`repro.graphs.multigraph.ECGraph.is_tree_ignoring_loops`:
    ``n - 1`` non-loop edges and one integer search from node 0 that
    reaches every node.  The empty graph is not a tree.
    """
    snap = snapshot_of(_kernel_of(g))
    n = snap.n
    ui, vi = snap.edge_endpoint_arrays()
    if snap.m - int(np.count_nonzero(ui == vi)) != n - 1:
        return False
    off = snap.slot_off
    other = snap.slot_other
    seen = bytearray(n)
    seen[0] = 1
    reached = 1
    todo = [0]
    while todo:
        v = todo.pop()
        for p in range(off[v], off[v + 1]):
            w = other[p]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                todo.append(w)
    return reached == n
