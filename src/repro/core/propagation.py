"""The propagation principle (paper, Fact 3 and Fact 8).

If two fractional matchings both saturate a node ``v`` and disagree on some
edge incident to ``v``, the saturation equations force them to disagree on
*another* edge incident to ``v`` — disagreements cannot stop at a saturated
node.  On a tree (ignoring loops) a chain of disagreements therefore walks a
simple path until it is resolved at a **loop**, which is where the adversary
of Section 4 finds its next witness (Figure 7), and where Lemma 7's
relabelling argument derives its contradiction.

Outputs are compared in the problem's native encoding — per-node mappings
``{incident colour: weight}`` — because the unfold-and-mix construction
relates graphs that share a node set but not an edge-id space (a loop of
``G`` and the fresh mixing edge of ``GH`` occupy the same colour slot).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, List, Mapping, Tuple

from ..graphs.multigraph import ECGraph
from ..graphs.soa import is_tree_ignoring_loops_fast

Node = Hashable
Color = Hashable
NodeOutputs = Mapping[Node, Mapping[Color, Fraction]]

__all__ = [
    "PropagationError",
    "disagreeing_colors",
    "node_load_of_output",
    "next_disagreement",
    "disagreement_walk",
]

ONE = Fraction(1)


class PropagationError(RuntimeError):
    """Raised when the propagation preconditions fail (a correctness bug in
    the algorithm under test, or a misuse of the walk)."""


def node_load_of_output(g: ECGraph, outputs: NodeOutputs, v: Node) -> Fraction:
    """``y[v]`` computed from a per-node colour->weight output map.

    Iterates the node's colour slots directly (:meth:`ECGraph.incident_colors`)
    rather than materialising sorted edge records — exact :class:`Fraction`
    addition is order-independent, so the slot order is irrelevant.
    """
    out = outputs[v]
    return sum(
        (
            w if type(w) is Fraction else Fraction(w)
            for w in (out[c] for c in g.incident_colors(v))
        ),
        Fraction(0),
    )


def disagreeing_colors(outputs1: NodeOutputs, outputs2: NodeOutputs, v: Node) -> List[Color]:
    """Colours incident to ``v`` on which the two outputs differ (sorted)."""
    o1, o2 = outputs1[v], outputs2[v]
    colors = set(o1.keys()) | set(o2.keys())
    # numeric != is exact across int/Fraction/float operands, so the
    # defensive Fraction() wraps would not change the comparison
    diff = [c for c in colors if o1.get(c, 0) != o2.get(c, 0)]
    return sorted(diff, key=repr)


def next_disagreement(
    g: ECGraph,
    outputs1: NodeOutputs,
    outputs2: NodeOutputs,
    v: Node,
    incoming: Color,
) -> Color:
    """Apply Fact 3 at ``v``: find a disagreeing colour other than ``incoming``.

    Requires ``v`` saturated in both outputs and a disagreement on
    ``incoming``; the saturation equations then guarantee a second
    disagreeing colour, which is returned (smallest by ``repr`` for
    determinism).  Raises :class:`PropagationError` if the preconditions do
    not hold — that always indicates the algorithm under test produced an
    infeasible or non-saturating solution.
    """
    if node_load_of_output(g, outputs1, v) != ONE:
        raise PropagationError(f"node {v!r} is not saturated in the first output")
    if node_load_of_output(g, outputs2, v) != ONE:
        raise PropagationError(f"node {v!r} is not saturated in the second output")
    diff = disagreeing_colors(outputs1, outputs2, v)
    if incoming not in diff:
        raise PropagationError(
            f"no disagreement on colour {incoming!r} at node {v!r}"
        )
    others = [c for c in diff if c != incoming]
    if not others:
        raise PropagationError(
            f"propagation principle violated at {v!r}: saturated in both outputs "
            f"yet the only disagreement is on {incoming!r}"
        )
    return others[0]


def disagreement_walk(
    g: ECGraph,
    outputs1: NodeOutputs,
    outputs2: NodeOutputs,
    start: Node,
    start_color: Color,
) -> Tuple[Node, Color, List[Tuple[Node, Color]]]:
    """Chase disagreements from ``start`` until they resolve at a loop.

    ``g`` must be a tree once loops are ignored (property (P3)); every node
    visited must be saturated in both outputs (guaranteed on loopy graphs by
    Lemma 2).  Starting from the known disagreement on ``start_color`` at
    ``start``, repeatedly apply :func:`next_disagreement`; because the
    non-loop structure is a tree and the walk never backtracks, it is a
    simple path and must terminate at a node whose disagreeing edge is a
    loop.

    Returns ``(g_star, loop_color, trail)`` where ``trail`` lists the
    ``(node, colour)`` steps taken (excluding the initial colour).  The
    tree guard reads ``g``'s columnar snapshot
    (:func:`repro.graphs.soa.is_tree_ignoring_loops_fast`), so ``g``'s
    colours must sort.
    """
    if not is_tree_ignoring_loops_fast(g):
        raise PropagationError("disagreement_walk requires a tree-with-loops")
    v = start
    incoming = start_color
    trail: List[Tuple[Node, Color]] = []
    for _ in range(g.num_nodes() + 1):
        c = next_disagreement(g, outputs1, outputs2, v, incoming)
        edge = g.edge_at(v, c)
        if edge is None:
            raise PropagationError(f"node {v!r} has no edge of colour {c!r}")
        trail.append((v, c))
        if edge.is_loop:
            return v, c, trail
        v = edge.other(v)
        incoming = c
    raise PropagationError(
        "walk failed to terminate; the graph is not a tree-with-loops"
    )  # pragma: no cover - guarded by the tree check above
