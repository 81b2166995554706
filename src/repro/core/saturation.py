"""Saturation on loopy graphs (paper, Lemma 2 and Figure 4) and the
saturation indicator ``A*`` (Section 5.4, step (i)).

Lemma 2: any EC-algorithm that solves maximal FM fully saturates every node
of a loopy EC-graph.  The reason is constructive — if a node ``v`` stayed
unsaturated, unfolding one of its loops produces a lift in which two
*adjacent* copies of ``v`` are both unsaturated, so the output is not
maximal there.  :func:`figure4_certificate` builds that refuting lift
explicitly, and :func:`simple_unfolding` goes further and produces a fully
*simple* lift (no loops, no parallel edges) by crossing the loops one colour
class at a time — so a failure is always witnessed on a legal simple input
graph, exactly as Figure 4 demands.

:func:`unsaturated_nodes` reads the loads an FM sums once when it is built.
Maximality alone saturates every node that has a loop, so an unsaturated
node of a maximal FM has no loop for Figure 4 to unfold.

The module also hosts the generic lift-invariance checker used to validate
that algorithms presented to the adversary really are anonymous.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..graphs.lifts import is_covering_map_ec, random_two_lift, unfold_loop
from ..graphs.multigraph import ECGraph
from ..local.algorithm import ECWeightAlgorithm
from ..matching.fm import ONE, FractionalMatching
from .propagation import node_load_of_output

Node = Hashable
Color = Hashable

__all__ = [
    "unsaturated_nodes",
    "saturation_indicator",
    "figure4_certificate",
    "simple_unfolding",
    "check_lift_invariance",
]


def unsaturated_nodes(fm: FractionalMatching) -> List[Node]:
    """Nodes of ``fm`` whose load ``y[v]`` is not 1, read off :attr:`FractionalMatching.loads`."""
    return [v for v, load in fm.loads.items() if load != ONE]


def saturation_indicator(
    g: ECGraph, outputs: Mapping[Node, Mapping[Color, Fraction]]
) -> Dict[Node, int]:
    """The binary indicator ``A*`` derived from an FM algorithm's output.

    ``A*(G, v) = 1`` iff the algorithm saturates ``v`` (Section 5.4).  Its
    outputs come from a finite set — the property that unlocks the
    Naor-Stockmeyer Ramsey technique for an otherwise unbounded-output
    problem.
    """
    return {
        v: 1 if node_load_of_output(g, outputs, v) == ONE else 0 for v in g.nodes()
    }


def figure4_certificate(
    g: ECGraph, v: Node, algorithm: ECWeightAlgorithm
) -> Optional[Tuple[ECGraph, Node, Node]]:
    """Refute an algorithm that left ``v`` unsaturated on a loopy graph.

    Unfolds one loop at ``v`` (the Figure 4 move) and re-runs the algorithm
    on the 2-lift; if the algorithm is lift-invariant the two adjacent copies
    of ``v`` are both unsaturated, violating maximality on the lift.  Returns
    ``(lift, v1, v2)`` — the two unsaturated adjacent copies — or ``None``
    if ``v`` has no loop to unfold (then ``v``'s factor image does, and the
    certificate can be sought there).
    """
    loops = g.loops_at(v)
    if not loops:
        return None
    lifted, _, new_eid = unfold_loop(g, loops[0].eid)
    outputs = algorithm.run_on(lifted)
    e = lifted.edge(new_eid)
    v1, v2 = e.u, e.v
    if (
        node_load_of_output(lifted, outputs, v1) != ONE
        and node_load_of_output(lifted, outputs, v2) != ONE
    ):
        return (lifted, v1, v2)
    return None


def simple_unfolding(g: ECGraph) -> Tuple[ECGraph, Dict[Node, Node]]:
    """A finite *simple* lift of ``g``: cross the loops colour class by colour class.

    Iteratively takes 2-lifts in which all loops of one colour are crossed
    (becoming honest edges between the two sides) while every other edge is
    straight.  Properness guarantees no parallel edges appear, and after one
    pass per loop colour no loops remain.  The result has
    ``2**(#loop colours) * n`` nodes and is a lift of ``g`` via the composed
    covering map.
    """
    current = g.copy()
    alpha: Dict[Node, Node] = {v: v for v in g.nodes()}
    loop_colors = sorted({e.color for e in g.edges() if e.is_loop}, key=repr)
    for color in loop_colors:
        lifted = ECGraph()
        step_map: Dict[Node, Node] = {}
        for side in (0, 1):
            for v in current.nodes():
                lifted.add_node((side, v))
                step_map[(side, v)] = v
        for e in current.edges():
            if e.is_loop and e.color == color:
                lifted.add_edge((0, e.u), (1, e.u), e.color)
            elif e.is_loop:
                lifted.add_edge((0, e.u), (0, e.u), e.color)
                lifted.add_edge((1, e.u), (1, e.u), e.color)
            else:
                lifted.add_edge((0, e.u), (0, e.v), e.color)
                lifted.add_edge((1, e.u), (1, e.v), e.color)
        alpha = {w: alpha[step_map[w]] for w in lifted.nodes()}
        current = lifted
    return current, alpha


def check_lift_invariance(
    algorithm: ECWeightAlgorithm,
    g: ECGraph,
    rng: random.Random,
    trials: int = 3,
) -> List[str]:
    """Empirically test lift invariance (paper condition (2)).

    Runs the algorithm on ``g`` and on ``trials`` random 2-lifts and compares
    each lifted node's output with its base image's.  Returns a list of
    discrepancy descriptions (empty when the algorithm passed).
    """
    problems: List[str] = []
    base_outputs = algorithm.run_on(g)
    for trial in range(trials):
        lifted, alpha = random_two_lift(g, rng)
        assert is_covering_map_ec(lifted, g, alpha)
        lifted_outputs = algorithm.run_on(lifted)
        for w, out in lifted_outputs.items():
            expected = base_outputs[alpha[w]]
            if dict(out) != dict(expected):
                problems.append(
                    f"trial {trial}: node {w!r} outputs {out} but its base "
                    f"image {alpha[w]!r} outputs {expected}"
                )
    return problems
