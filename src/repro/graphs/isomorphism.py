"""Isomorphism tests for rooted, edge-coloured neighbourhoods.

Property (P1) of the paper's lower-bound construction (Section 4.1) asserts
that two radius-``i`` neighbourhoods are isomorphic as edge-coloured
structures.  The adversary in :mod:`repro.core.adversary` verifies this claim
mechanically on every inductive step using the functions here.

For trees-with-loops (property (P3): the construction's graphs are trees once
loops are ignored) a rooted, colour-preserving isomorphism is decided by a
*canonical form*: proper edge colouring makes the recursive encoding of a
rooted tree deterministic, so two balls are isomorphic iff their encodings are
equal.  Production computes forms with
:func:`repro.graphs.soa.canonical_form_fast`, whose shape-plan cache is the
one canonical-form memo; :func:`canonical_form_of` routes each lookup
through the ambient cache, when one is installed, so that it is counted.
The adversary compares radius-``i`` forms read off its whole graphs; no
ball is extracted.  :func:`canonical_rooted_form` is the recursive
definition, and :func:`balls_isomorphic` over the balls that
:func:`~repro.graphs.neighborhoods.ball` builds edge by edge the object
path; both are kept as oracles and as :func:`repro.core.witness.reverify_step`'s
independent re-check.  A general (slow) path via :mod:`networkx` VF2 serves
non-tree EC-graphs.
"""

from __future__ import annotations

from typing import Hashable, Optional, Set, Tuple

import networkx as nx

from .multigraph import ECGraph
from .neighborhoods import Ball
from .soa import canonical_form_fast

Node = Hashable

__all__ = [
    "canonical_rooted_form",
    "canonical_form_of",
    "balls_isomorphic",
    "rooted_isomorphic",
    "ec_isomorphic",
    "install_canonical_cache",
    "current_canonical_cache",
    "use_canonical_cache",
]

_LOOP = "loop"
_CUT = "cut"

#: the installed canonical-form cache (duck-typed: anything with a
#: ``canonical_form(g, root, radius)`` method, normally the counting
#: :class:`repro.engine.cache.CanonicalFormCache`); ``None`` computes
#: uncounted.  Held here — not in :mod:`repro.engine` — so the graphs
#: layer never imports upwards.
_CANONICAL_CACHE = None


def install_canonical_cache(cache):
    """Install ``cache`` as the ambient canonical-form cache.

    Returns the previously installed cache (``None`` when there was none)
    so callers can restore it; prefer :class:`use_canonical_cache` for
    scoped installation.
    """
    global _CANONICAL_CACHE
    previous = _CANONICAL_CACHE
    _CANONICAL_CACHE = cache
    return previous


def current_canonical_cache():
    """The ambient canonical-form cache, or ``None`` when none is installed."""
    return _CANONICAL_CACHE


class use_canonical_cache:
    """Install a canonical-form cache for the duration of a ``with`` block."""

    def __init__(self, cache):
        self._cache = cache
        self._previous = None

    def __enter__(self):
        self._previous = install_canonical_cache(self._cache)
        return self._cache

    def __exit__(self, exc_type, exc, tb) -> bool:
        install_canonical_cache(self._previous)
        return False


def canonical_rooted_form(
    g: ECGraph, root: Node, _from_eid: Optional[int] = None, _seen: Optional[Set[Node]] = None
) -> Tuple:
    """Canonical form of a rooted EC tree-with-loops (the test oracle).

    Recursively encodes the structure below ``root``: for each incident edge
    (other than the one we arrived by) the entry is ``(colour, "loop")`` for a
    loop and ``(colour, <child encoding>)`` otherwise.  Entries are sorted by
    ``repr`` of the colour, stably over the colour-sorted incident edges, so
    distinct colours sharing a ``repr`` keep their colour order; properness
    guarantees colours are distinct, so the encoding is well-defined and two
    rooted trees-with-loops are colour-isomorphic iff their canonical forms
    are equal.

    Raises ``ValueError`` if the graph (ignoring loops) contains a cycle.
    """
    seen = {root} if _seen is None else _seen
    entries = []
    for e in g.incident_edges(root):
        if _from_eid is not None and e.eid == _from_eid:
            entries.append((e.color, _CUT))
            continue
        if e.is_loop:
            entries.append((e.color, _LOOP))
            continue
        child = e.other(root)
        if child in seen:
            raise ValueError(
                "canonical form undefined: graph contains a cycle "
                "(ignoring loops); canonical_rooted_form requires a tree"
            )
        seen.add(child)
        entries.append((e.color, canonical_rooted_form(g, child, e.eid, seen)))
    return tuple(sorted(entries, key=lambda item: repr(item[0])))


def canonical_form_of(g: ECGraph, root: Node, radius: Optional[int] = None) -> Tuple:
    """Canonical rooted form of a tree-with-loops, through the ambient cache.

    Asks the installed canonical-form cache (:func:`install_canonical_cache`)
    when there is one, and :func:`repro.graphs.soa.canonical_form_fast`
    directly otherwise; the hot path of the adversary's (P1) check and of
    the parallel sweep engine.  With a ``radius`` it is the form of
    ``ball(g, root, radius)``, walked on ``g`` itself and cut at that depth.
    """
    cache = _CANONICAL_CACHE
    if cache is not None:
        return cache.canonical_form(g, root, radius)
    return canonical_form_fast(g, root, radius)


def rooted_isomorphic(g1: ECGraph, r1: Node, g2: ECGraph, r2: Node) -> bool:
    """Whether two rooted EC-graphs admit a colour- and root-preserving isomorphism.

    Fast path: if both graphs are trees-with-loops, compare (cached)
    canonical forms.  Otherwise fall back to VF2 on auxiliary simple graphs
    with a root marker.
    """
    if g1.is_tree_ignoring_loops() and g2.is_tree_ignoring_loops():
        return canonical_form_of(g1, r1) == canonical_form_of(g2, r2)
    return _vf2_isomorphic(g1, g2, roots=(r1, r2))


def balls_isomorphic(b1: Ball, b2: Ball) -> bool:
    """Whether two extracted balls are isomorphic as rooted EC structures."""
    if b1.radius != b2.radius:
        return False
    return rooted_isomorphic(b1.graph, b1.root, b2.graph, b2.root)


def ec_isomorphic(g1: ECGraph, g2: ECGraph) -> bool:
    """Unrooted colour-preserving isomorphism between two EC-graphs (VF2)."""
    return _vf2_isomorphic(g1, g2, roots=None)


def _vf2_isomorphic(g1: ECGraph, g2: ECGraph, roots) -> bool:
    """VF2 fallback; encodes loops and parallel edges via subdivision nodes."""
    n1 = _to_marked_nx(g1, roots[0] if roots else None)
    n2 = _to_marked_nx(g2, roots[1] if roots else None)
    nm = nx.algorithms.isomorphism.categorical_node_match("kind", None)
    return nx.is_isomorphic(n1, n2, node_match=nm)


def _to_marked_nx(g: ECGraph, root) -> "nx.Graph":
    """Encode an EC multigraph as a simple graph: every edge (including loops
    and parallels) becomes a subdivision node labelled by its colour."""
    out = nx.Graph()
    for v in g.nodes():
        kind = ("root",) if root is not None and v == root else ("node",)
        out.add_node(("n", v), kind=kind)
    for e in g.edges():
        mid = ("e", e.eid)
        out.add_node(mid, kind=("edge", e.color, e.is_loop))
        out.add_edge(("n", e.u), mid)
        if not e.is_loop:
            out.add_edge(("n", e.v), mid)
    return out
