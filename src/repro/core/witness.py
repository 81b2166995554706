"""Witness objects emitted by the lower-bound adversary (Section 4).

Every inductive step of the unfold-and-mix construction is recorded as a
:class:`StepWitness` carrying the graph pair, the witness nodes, and the
machine-checked facts (P1)-(P3): the radius-``i`` neighbourhoods are
isomorphic while the outputs disagree on a common loop colour; the graphs
are suitably loopy; and they are trees once loops are ignored.  A completed
run is a :class:`LowerBoundWitness`, whose ``achieved_depth`` of
``Delta - 2`` certifies that the algorithm's outputs at the witness nodes
depend on information at distance ``> Delta - 2`` — i.e. run-time
``Omega(Delta)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, List, Mapping, Optional

from ..graphs.multigraph import ECGraph

Node = Hashable
Color = Hashable
NodeOutputs = Mapping[Node, Mapping[Color, Fraction]]

__all__ = ["AlgorithmFailure", "StepWitness", "LowerBoundWitness", "reverify_step"]


class AlgorithmFailure(RuntimeError):
    """The algorithm under test is not a correct maximal-FM EC-algorithm.

    Carries a machine-checkable certificate: the input graph and a
    description of the violated property (inconsistent endpoints,
    infeasibility, non-maximality, an unsaturated node on a loopy graph, or
    a lift-invariance breach).
    """

    def __init__(self, message: str, graph: Optional[ECGraph] = None, detail: Optional[object] = None):
        super().__init__(message)
        self.graph = graph
        self.detail = detail


@dataclass
class StepWitness:
    """One step ``(G_i, H_i)`` of the construction with verified properties.

    Attributes
    ----------
    index:
        The step index ``i``.
    graph_g, graph_h:
        The pair ``(G_i, H_i)``.
    node_g, node_h:
        Witness nodes ``g_i`` / ``h_i``.
    color:
        The loop colour ``c_i`` on which the outputs disagree.
    weight_g, weight_h:
        The two (distinct) weights announced for the colour-``c_i`` loop.
    balls_isomorphic:
        Verified claim: ``tau_i(G_i, g_i)`` is isomorphic to
        ``tau_i(H_i, h_i)`` (property (P1)).
    loop_budget:
        Verified lower bound on the loop count of every node — at least
        ``Delta - 1 - i`` (property (P2)).
    trees:
        Verified claim that both graphs are trees-with-loops (property (P3)).
    side:
        Which case of the inductive analysis produced this step:
        ``"base"``, ``"G"`` (pair ``(GG, GH)``) or ``"H"`` (pair ``(HH, GH)``).
    """

    index: int
    graph_g: ECGraph
    graph_h: ECGraph
    node_g: Node
    node_h: Node
    color: Color
    weight_g: Fraction
    weight_h: Fraction
    balls_isomorphic: bool
    loop_budget: int
    trees: bool
    side: str

    @property
    def valid(self) -> bool:
        """Whether all verified claims hold and the weights really differ."""
        return (
            self.balls_isomorphic
            and self.trees
            and self.weight_g != self.weight_h
        )


def reverify_step(step: "StepWitness", delta: int) -> List[str]:
    """Independently re-check a step witness (e.g. one loaded from JSON).

    Recomputes every machine-checkable claim from the graphs alone:
    (P1) ball isomorphism, (P3) tree shape, the loop budget (P2), degree
    bounds, and that the witness colour is a loop at both witness nodes.
    Returns a list of discrepancies (empty = the witness is sound).  The
    output *weights* are the one thing that cannot be recomputed without
    the original algorithm; they are taken from the step record.
    """
    from ..graphs.isomorphism import balls_isomorphic
    from ..graphs.loopy import min_direct_loops
    from ..graphs.neighborhoods import ball

    problems: List[str] = []
    b1 = ball(step.graph_g, step.node_g, step.index)
    b2 = ball(step.graph_h, step.node_h, step.index)
    if not balls_isomorphic(b1, b2):
        problems.append(f"(P1) radius-{step.index} balls are not isomorphic")
    if step.weight_g == step.weight_h:
        problems.append("(P1) recorded weights do not differ")
    for name, g, v in (("G", step.graph_g, step.node_g), ("H", step.graph_h, step.node_h)):
        e = g.edge_at(v, step.color)
        if e is None or not e.is_loop:
            problems.append(f"colour {step.color!r} is not a loop at the {name} witness")
        if not g.is_tree_ignoring_loops():
            problems.append(f"(P3) {name} is not a tree-with-loops")
        if min_direct_loops(g) < delta - 1 - step.index:
            problems.append(f"(P2) {name}'s loop budget is below Delta-1-i")
        if g.max_degree() > delta:
            problems.append(f"{name} exceeds maximum degree {delta}")
    return problems


@dataclass
class LowerBoundWitness:
    """A completed adversary run against one algorithm.

    ``achieved_depth`` is the largest ``i`` with a valid step witness; the
    construction reaches ``Delta - 2``, certifying run-time ``> Delta - 2``
    on graphs of maximum degree ``Delta`` — the paper's Theorem 1 in
    executable form.
    """

    algorithm: str
    delta: int
    steps: List[StepWitness] = field(default_factory=list)

    @property
    def achieved_depth(self) -> int:
        """Largest valid witness index (-1 if no step was completed)."""
        valid = [s.index for s in self.steps if s.valid]
        return max(valid, default=-1)

    @property
    def all_valid(self) -> bool:
        """Whether every recorded step passed all its machine checks."""
        return all(s.valid for s in self.steps)

    def conclusion(self) -> str:
        """One-line human-readable statement of what was certified."""
        d = self.achieved_depth
        return (
            f"algorithm {self.algorithm!r} on graphs of max degree {self.delta} "
            f"produced differing outputs on isomorphic radius-{d} views: "
            f"run-time > {d} rounds (Omega(Delta))"
        )
