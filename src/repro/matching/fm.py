"""Fractional matchings (paper, Section 1.2).

A fractional matching (FM) on a graph ``G`` assigns each edge a weight in
``[0, 1]`` such that every node's incident weight sum ``y[v]`` is at most 1;
``v`` is *saturated* when ``y[v] = 1``.  An FM is *maximal* when every edge
has at least one saturated endpoint.  All weights here are exact
:class:`fractions.Fraction` values so that feasibility, saturation and the
propagation arguments of the lower bound are decided without tolerances.

Degree conventions for multigraphs follow the paper (Section 3.5): on an
EC-graph a loop contributes its weight **once** to ``y[v]``; on a PO-graph a
directed loop contributes **twice** (once as tail, once as head).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph

Node = Hashable
Color = Hashable
EdgeId = int

__all__ = [
    "FractionalMatching",
    "InconsistentOutputError",
    "fm_from_node_outputs",
    "po_node_load",
]

ZERO = Fraction(0)
ONE = Fraction(1)


class InconsistentOutputError(ValueError):
    """Raised when the two endpoints of an edge announce different weights.

    In the LOCAL formulation each node outputs the weight of every incident
    edge (Section 1.4); a correct algorithm must make endpoints agree, and a
    disagreement is a hard correctness failure the verifiers report.
    """


@dataclass
class FractionalMatching:
    """An edge-weight assignment on an EC-graph, with exact arithmetic.

    Missing edges weigh 0.  The class is a value object: it never mutates its
    graph, and ``weights`` is fixed when it is built.  Building it sums every
    load ``y[v]`` once into :attr:`loads`, which every predicate reads.
    """

    graph: ECGraph
    weights: Dict[EdgeId, Fraction]
    #: ``y[v]`` of every node, in ``graph.nodes()`` order
    loads: Dict[Node, Fraction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        g = self.graph
        clean: Dict[EdgeId, Fraction] = {}
        loads = dict.fromkeys(g.nodes(), ZERO)
        for eid, w in self.weights.items():
            if not g.has_edge_id(eid):
                raise KeyError(f"weight given for unknown edge id {eid}")
            if type(w) is not Fraction:
                w = Fraction(w)
            clean[eid] = w
            e = g.edge(eid)
            loads[e.u] += w
            if not e.is_loop:  # a loop counts once
                loads[e.v] += w
        self.weights = clean
        self.loads = loads

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def weight(self, eid: EdgeId) -> Fraction:
        """Weight of edge ``eid`` (0 when unset)."""
        return self.weights.get(eid, ZERO)

    def node_load(self, v: Node) -> Fraction:
        """``y[v]``: the sum of incident edge weights (loops count once)."""
        return self.loads[v]

    def is_saturated(self, v: Node) -> bool:
        """Whether ``y[v] = 1`` exactly."""
        return self.loads[v] == ONE

    def saturated_nodes(self) -> List[Node]:
        """All saturated nodes."""
        return [v for v, load in self.loads.items() if load == ONE]

    def total_weight(self) -> Fraction:
        """The FM's total weight ``sum_e y(e)``."""
        # __post_init__ guarantees every stored key is a live edge, and
        # missing edges weigh 0, so the stored weights alone carry the sum
        return sum(self.weights.values(), ZERO)

    # ------------------------------------------------------------------
    # feasibility / maximality
    # ------------------------------------------------------------------
    def feasibility_violations(self) -> List[str]:
        """Human-readable list of feasibility violations (empty iff feasible)."""
        problems: List[str] = []
        for e in self.graph.edges():
            w = self.weight(e.eid)
            if not (ZERO <= w <= ONE):
                problems.append(f"edge {e.eid} has weight {w} outside [0, 1]")
        for v, load in self.loads.items():
            if load > ONE:
                problems.append(f"node {v!r} is overloaded: y[v] = {load}")
        return problems

    def is_feasible(self) -> bool:
        """Whether all weights lie in [0, 1] and no node is overloaded."""
        return not self.feasibility_violations()

    def maximality_violations(self) -> List[EdgeId]:
        """Edges with *no* saturated endpoint (empty iff maximal).

        For a loop the single endpoint must be saturated.
        """
        saturated = set(self.saturated_nodes())
        return [
            e.eid
            for e in self.graph.edges()
            if e.u not in saturated and e.v not in saturated
        ]

    def is_maximal(self) -> bool:
        """Whether every edge has at least one saturated endpoint."""
        return not self.maximality_violations()

    def is_fully_saturated(self) -> bool:
        """Whether *every* node is saturated (Lemma 2's conclusion on loopy graphs)."""
        return all(load == ONE for load in self.loads.values())

    # ------------------------------------------------------------------
    # comparison
    # ------------------------------------------------------------------
    def disagreements(self, other: "FractionalMatching") -> List[EdgeId]:
        """Edge ids on which two FMs over the same edge-id space differ."""
        ids = set(self.weights) | set(other.weights)
        return sorted(eid for eid in ids if self.weight(eid) != other.weight(eid))

    def restricted_to(self, nodes) -> Dict[EdgeId, Fraction]:
        """Weights of edges with at least one endpoint in ``nodes``."""
        keep = set(nodes)
        out: Dict[EdgeId, Fraction] = {}
        for e in self.graph.edges():
            if e.u in keep or e.v in keep:
                out[e.eid] = self.weight(e.eid)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FractionalMatching(total={self.total_weight()}, "
            f"saturated={len(self.saturated_nodes())}/{self.graph.num_nodes()}, "
            f"maximal={self.is_maximal()})"
        )


def fm_from_node_outputs(
    g: ECGraph, outputs: Mapping[Node, Mapping[Color, Fraction]]
) -> FractionalMatching:
    """Assemble an FM from per-node, per-colour local outputs.

    Every node must announce a weight for each of its incident colours, and
    the two endpoints of every non-loop edge must agree; otherwise
    :class:`InconsistentOutputError` is raised (this is itself a locally
    checkable condition).
    """
    weights: Dict[EdgeId, Fraction] = {}
    for v in g.nodes():
        out = outputs.get(v)
        if out is None:
            raise InconsistentOutputError(f"node {v!r} produced no output")
        colors = g.incident_colors(v)
        # colours match by equality, as ``edge_at`` finds them; their reprs
        # only word the message
        if out.keys() != set(colors):
            raise InconsistentOutputError(
                f"node {v!r} announced colours {sorted(set(map(repr, out)))} "
                f"but has {sorted(set(map(repr, colors)))}"
            )
        for color, w in out.items():
            e = g.edge_at(v, color)
            if type(w) is not Fraction:
                w = Fraction(w)
            if e.eid in weights and weights[e.eid] != w:
                raise InconsistentOutputError(
                    f"endpoints of edge {e.eid} disagree: {weights[e.eid]} vs {w}"
                )
            weights[e.eid] = w
    return FractionalMatching(graph=g, weights=weights)


def po_node_load(g: POGraph, weights: Mapping[EdgeId, Fraction], v: Node) -> Fraction:
    """``y[v]`` on a PO-graph: out-arcs + in-arcs; a directed loop counts twice."""
    load = ZERO
    for e in g.out_edges(v):
        w = weights.get(e.eid, ZERO)
        load += w if type(w) is Fraction else Fraction(w)
    for e in g.in_edges(v):
        w = weights.get(e.eid, ZERO)
        load += w if type(w) is Fraction else Fraction(w)
    return load
