"""Reference implementations the production graph paths are tested against.

The canonical-form oracle, :func:`repro.graphs.isomorphism.canonical_rooted_form`,
lives in the package (it is public API); the labelled-structure
comparison lives here.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.kernel import DiEdge


def labelled_structure(g):
    """The node set and the multiset of ``(endpoints, colour)`` edges of ``g``.

    ``g`` is any graph with ``nodes()`` and ``edges()``: an EC or PO view or
    a frozen kernel.  An edge's endpoints are unordered, an arc's are
    ``(tail, head)``; edge ids are left out.  Labels and colours are
    compared by equality, never by ``repr``, so two graphs have equal
    structures exactly when they are the same labelled graph up to edge
    ids.
    """
    edges = Counter()
    for e in g.edges():
        ends = (e.tail, e.head) if isinstance(e, DiEdge) else frozenset((e.u, e.v))
        edges[ends, e.color] += 1
    return frozenset(g.nodes()), edges
