"""The simulation PO <= OI (paper, Section 5.3 and Figure 9).

A ``t``-time OI-algorithm for a PO-checkable problem yields a ``t``-time
PO-algorithm: given a PO-graph ``G`` and a node ``v``,

1. materialise the radius-``t`` neighbourhood ``tau_t(UG, v)`` of the
   universal cover (:func:`repro.graphs.cover.universal_cover_po`);
2. embed it into the infinite 2d-regular PO-tree ``T``: each cover node's
   step word (edge ids replaced by their colours) is a reduced free-group
   word, and the embedding is forced by the colours;
3. order the cover nodes by the homogeneous order of Appendix A
   (:mod:`repro.core.canonical_order`) — by Lemma 4 the resulting ordered
   structure is independent of where the root lands in ``T``;
4. evaluate the OI-algorithm on the ordered neighbourhood and output what it
   says about the root.

Feasibility on ``G`` follows from feasibility on the canonically ordered
``(UG, <)`` plus PO-checkability — all of which the tests verify on the
produced outputs rather than assume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from ..graphs.cover import TruncatedCoverPO, universal_cover_po
from ..graphs.digraph import POGraph
from ..local.algorithm import DistributedAlgorithm, POWeightAlgorithm
from ..local.runtime import PONetwork, run_rounds
from .canonical_order import Word, tree_sort_key

Node = Hashable
Slot = Tuple[str, Any]  # ("out", colour) / ("in", colour)

__all__ = ["OIAlgorithm", "POFromOI", "po_algorithm_from_oi", "SymmetricOIAdapter", "cover_words",
           "ordered_cover_nodes"]


class OIAlgorithm(ABC):
    """A ``t``-time order-invariant algorithm on ordered PO-neighbourhoods.

    ``evaluate`` receives the radius-``t`` cover neighbourhood (a PO-tree),
    its root, and the nodes listed in increasing linear order; it must
    return the root's output — a weight per incident slot.  Order-invariance
    is structural: the only access to identity is the supplied order.
    """

    #: the algorithm's radius (how much of the cover it is shown)
    t: int = 0

    name: str = "oi-algorithm"

    @abstractmethod
    def evaluate(self, tree: POGraph, root: Node, ordered_nodes: List[Node]) -> Dict[Slot, Fraction]:
        """Output of the root on the ordered neighbourhood."""


def cover_words(g: POGraph, cover: TruncatedCoverPO) -> Dict[Node, Word]:
    """The ``T``-embedding of a truncated PO cover.

    A cover node is labelled by its ``(edge id, direction)`` step walk; the
    embedding replaces ids by colours.  Properness makes the result a
    *reduced* word and the map injective, so the homogeneous order of
    :mod:`repro.core.canonical_order` orders the cover nodes.
    """
    words: Dict[Node, Word] = {}
    for label in cover.tree.nodes():
        words[label] = tuple((g.edge(eid).color, d) for (eid, d) in label)
    return words


def ordered_cover_nodes(g: POGraph, cover: TruncatedCoverPO) -> List[Node]:
    """The cover's nodes in the homogeneous order their ``T``-words inherit."""
    words = cover_words(g, cover)
    return sorted(words, key=lambda n: tree_sort_key(words[n]))


class POFromOI(POWeightAlgorithm):
    """PO-model wrapper around an OI-algorithm (the Section 5.3 simulation)."""

    def __init__(self, oi_algorithm: OIAlgorithm):
        self.oi_algorithm = oi_algorithm
        self.name = f"po<=oi[{oi_algorithm.name}]"

    def run_on(self, g: POGraph) -> Dict[Node, Dict[Slot, Fraction]]:
        from ..obs.tracer import current_tracer

        t = self.oi_algorithm.t
        outputs: Dict[Node, Dict[Slot, Fraction]] = {}
        tracer = current_tracer()
        tracer.metrics.counter("sim.layer_runs", layer="po_from_oi", algorithm=self.name).inc()
        with tracer.span(
            "sim.po_from_oi",
            algorithm=self.name,
            nodes=g.num_nodes(),
            t=t,
        ) as span:
            for v in g.nodes():
                cover = universal_cover_po(g, v, t)
                ordered = ordered_cover_nodes(g, cover)
                outputs[v] = dict(
                    self.oi_algorithm.evaluate(cover.tree, cover.root, ordered)
                )
                span.add("covers")
                span.add("cover_nodes", cover.tree.num_nodes())
        return outputs

    def rounds_used(self, g: POGraph) -> Optional[int]:
        """The simulation is run-time preserving: exactly ``t`` rounds."""
        return self.oi_algorithm.t


def po_algorithm_from_oi(oi_algorithm: OIAlgorithm) -> POFromOI:
    """Functional spelling of :class:`POFromOI`."""
    return POFromOI(oi_algorithm)


class SymmetricOIAdapter(OIAlgorithm):
    """Present a port-symmetric PO state machine as an OI-algorithm.

    Order-oblivious algorithms (e.g. the proposal or doubling dynamics) are
    trivially order-invariant; this adapter runs them for ``t`` rounds on the
    cover neighbourhood and reports the root's (possibly snapshotted)
    weights.  It exists to exercise the full PO <= OI plumbing end to end —
    covers, embeddings, canonical order — with algorithms whose correctness
    is independently known.

    ``globals_factory`` supplies the state machine's global knowledge for a
    given tree (e.g. ``delta``).

    Radius convention: the paper's ``tau_t`` excludes even the centre's own
    ports at ``t = 0``, so a state machine whose nodes see their ports at
    initialisation and exchange ``r`` messages computes a function of
    ``tau_{r+1}``.  A ``t``-time OI-algorithm therefore runs its wrapped
    machine for ``t - 1`` rounds on the radius-``t`` cover; the truncation
    boundary (whose nodes have incomplete port information) then lies
    strictly beyond the root's information horizon, and only the root's
    light cone, the nodes within ``t - 1`` hops, is simulated
    (``run_rounds(..., root=...)``).
    """

    def __init__(
        self,
        algorithm: DistributedAlgorithm,
        t: int,
        globals_factory: Optional[Callable[[POGraph], Dict[str, Any]]] = None,
        name: Optional[str] = None,
    ):
        if algorithm.model != "PO":
            raise ValueError("SymmetricOIAdapter wraps PO-model state machines")
        if t < 1:
            raise ValueError("state-machine adapters need t >= 1 (tau_0 hides the ports)")
        self.algorithm = algorithm
        self.t = t
        self.globals_factory = globals_factory or (lambda tree: {})
        self.name = name or f"symmetric[{type(algorithm).__name__}]"

    def evaluate(self, tree: POGraph, root: Node, ordered_nodes: List[Node]) -> Dict[Slot, Fraction]:
        network = PONetwork(tree, globals_=self.globals_factory(tree))
        result = run_rounds(network, self.algorithm, rounds=self.t - 1, root=root)
        out = result.outputs[root]
        if out is None:
            raise RuntimeError(
                f"{self.name}: the wrapped algorithm offered no output or snapshot "
                f"after {self.t} rounds"
            )
        return dict(out)
