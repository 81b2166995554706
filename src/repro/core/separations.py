"""Model separations (paper, Section 2.1 and Figure 1), executable.

The paper calibrates the four deterministic models with two examples:

* *"there are problems that are trivial to solve in ID, OI, and PO but
  impossible to solve in EC ... (example: graph colouring in 1-regular
  graphs)"* — a PO algorithm 2-colours a perfect matching in zero rounds
  (tails take colour 0, heads colour 1), but in EC both endpoints of an
  edge have *identical views at every radius*, so any EC algorithm outputs
  the same colour on both: :func:`ec_coloring_impossibility_certificate`
  produces that certificate for any radius.

* *"there are also problems that can be solved with a local algorithm in EC
  but they do not admit a local algorithm in ID, OI, or PO (example:
  maximal matching)"* — greedy-by-colour maximal matching runs in
  ``k = O(Delta)`` EC rounds (:class:`GreedyColorMatching`), while in the
  ID model maximal matching needs ``Omega(log* n)`` rounds (Linial), i.e.
  is not strictly local.

Both halves are used by the Section 2.1 tests and benches.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Optional, Set, Tuple

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph
from ..local.algorithm import DistributedAlgorithm
from ..local.context import NodeContext
from ..local.runtime import ECNetwork, run
from ..local.views import ec_view_tree

Node = Hashable

__all__ = [
    "two_color_one_regular_po",
    "ec_coloring_impossibility_certificate",
    "GreedyColorMatching",
    "maximal_matching_in_ec",
]


def two_color_one_regular_po(g: POGraph) -> Dict[Node, int]:
    """2-colour a 1-regular PO-graph with no communication at all.

    Every node of a 1-regular PO-graph is either the tail or the head of
    its unique arc — locally visible information — so tails take colour 0
    and heads colour 1.  Raises ``ValueError`` on non-1-regular inputs
    (including directed loops, whose node is both tail and head: the lift
    argument below applies to them too).
    """
    colors: Dict[Node, int] = {}
    for v in g.nodes():
        out_deg, in_deg = len(g.out_colors(v)), len(g.in_colors(v))
        if out_deg + in_deg != 1:
            raise ValueError(f"node {v!r} has PO degree {out_deg + in_deg}, not 1")
        colors[v] = 0 if out_deg == 1 else 1
    return colors


def ec_coloring_impossibility_certificate(radius: int) -> Tuple[ECGraph, Node, Node]:
    """Why no EC algorithm colours 1-regular graphs: a symmetry certificate.

    Returns the single-edge EC-graph ``K2`` and its two endpoints, whose
    view trees agree at the given radius (checked, not assumed).  Since any
    EC algorithm is a function of the view, it must output the same colour
    on both endpoints of the edge — never a proper colouring.  This is the
    ``t``-round impossibility for every ``t``.
    """
    g = ECGraph()
    g.add_edge("u", "v", 1)
    view_u = ec_view_tree(g, "u", radius)
    view_v = ec_view_tree(g, "v", radius)
    if view_u != view_v:  # pragma: no cover - would falsify the theorem
        raise AssertionError("K2 endpoints must have identical EC views")
    return g, "u", "v"


class GreedyColorMatching(DistributedAlgorithm):
    """EC-model maximal (integral) matching in ``k`` rounds.

    Round ``r`` handles the ``r``-th palette colour: both endpoints of each
    live colour-``r`` edge announce whether they are still unmatched, and
    the edge joins the matching iff both are.  Colour classes are matchings
    (properness), so no conflicts arise; when an edge's colour is handled,
    either it joins or an endpoint is already matched — maximality.

    Output per node: ``{colour: 0/1}`` flags (1 = incident edge of that
    colour is in the matching).  Loops cannot belong to a matching, and a
    loop's echo would make an unmatched node "match with its own copy", so
    the wrapper :func:`maximal_matching_in_ec` strips loops before running
    — integral matching is a problem on the loop-free part by definition.
    """

    model = "EC"

    def initial_state(self, ctx: NodeContext) -> Dict[str, Any]:
        return {
            "palette": list(ctx.globals["palette"]),
            "step": 0,
            "matched": False,
            "flags": {},
        }

    def send(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Any]:
        step = state["step"]
        if step >= len(state["palette"]):
            return {}
        color = state["palette"][step]
        if color in ctx.ports:
            return {color: state["matched"]}
        return {}

    def receive(self, state: Dict[str, Any], ctx: NodeContext, inbox: Dict[Any, Any]) -> Dict[str, Any]:
        state = dict(state)
        state["flags"] = dict(state["flags"])
        step = state["step"]
        if step < len(state["palette"]):
            color = state["palette"][step]
            if color in ctx.ports:
                their_matched = inbox[color]
                take = not state["matched"] and not their_matched
                state["flags"][color] = 1 if take else 0
                if take:
                    state["matched"] = True
        state["step"] = step + 1
        return state

    def output(self, state: Dict[str, Any], ctx: NodeContext) -> Optional[Dict[Any, int]]:
        if state["step"] < len(state["palette"]):
            return None
        return {c: state["flags"].get(c, 0) for c in ctx.ports}


def maximal_matching_in_ec(g: ECGraph) -> Tuple[Set[int], int]:
    """Run greedy-by-colour matching in the EC model; return (edge ids, rounds).

    Loops are excluded up front (they cannot belong to a matching; on the
    loop-free rest the algorithm's self-matching concern vanishes).  The
    result is verified to be a maximal matching of the loop-free part.
    """
    core = g.copy()
    for e in list(core.edges()):
        if e.is_loop:
            core.remove_edge(e.eid)
    network = ECNetwork(core, globals_={"palette": core.colors()})
    result = run(network, GreedyColorMatching(), max_rounds=len(core.colors()) + 1)
    if not result.halted:
        raise RuntimeError("greedy matching did not halt")
    chosen: Set[int] = set()
    for v, flags in result.outputs.items():
        for color, flag in flags.items():
            if flag:
                chosen.add(core.edge_at(v, color).eid)
    return chosen, result.rounds
