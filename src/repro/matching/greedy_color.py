"""Greedy-by-colour maximal fractional matching in the EC model.

This is the canonical ``O(Delta)``-round upper bound the paper's Theorem 1
is tight against (the paper cites Astrand-Suomela [3]; in the EC model the
algorithm is the natural greedy of Hirvonen-Suomela [13]):

    for each colour ``c`` of the palette, in one communication round, the two
    endpoints of every colour-``c`` edge exchange their residual capacities
    and add ``min(r(u), r(v))`` to the edge's weight.

Each colour class is a matching (proper colouring), so the round is
conflict-free; after an edge's colour is processed one endpoint is saturated
(the minimiser spends its whole residual) — hence the result is maximal —
and no node ever exceeds capacity — hence feasible.  The round count equals
the palette size ``k = O(Delta)``.

A loop's round is the echo: the node receives its own residual back and
assigns the loop ``min(r, r) = r``, saturating itself — exactly the
universal-cover semantics under which a loop's neighbour is a copy of
oneself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Hashable, Optional

from ..local.algorithm import DistributedAlgorithm, SimulatedECWeights
from ..local.context import NodeContext

Node = Hashable
Color = Hashable

__all__ = ["GreedyColorFM", "greedy_color_algorithm"]

ONE = Fraction(1)


class GreedyColorFM(DistributedAlgorithm):
    """EC-model state machine for greedy-by-colour maximal FM.

    The palette (the graph's sorted colour list) is global knowledge, as is
    standard for EC algorithms — it is supplied through ``ctx.globals``
    under the key ``"palette"``.  Round ``r`` handles the ``r``-th palette
    colour; nodes lacking that colour idle for the round.
    """

    model = "EC"

    def initial_state(self, ctx: NodeContext) -> Dict[str, Any]:
        palette = ctx.globals["palette"]
        return {
            "palette": list(palette),
            "step": 0,
            "residual": ONE,
            "weights": {},
        }

    def send(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Any]:
        step = state["step"]
        if step >= len(state["palette"]):
            return {}
        color = state["palette"][step]
        if color in ctx.ports:
            return {color: state["residual"]}
        return {}

    def receive(self, state: Dict[str, Any], ctx: NodeContext, inbox: Dict[Any, Any]) -> Dict[str, Any]:
        step = state["step"]
        state = dict(state)
        if step < len(state["palette"]):
            color = state["palette"][step]
            if color in ctx.ports:
                their_residual = inbox[color]
                w = min(state["residual"], their_residual)
                weights = dict(state["weights"])
                weights[color] = w
                state["weights"] = weights
                state["residual"] = state["residual"] - w
        state["step"] = step + 1
        return state

    def output(self, state: Dict[str, Any], ctx: NodeContext) -> Optional[Dict[Color, Fraction]]:
        if state["step"] < len(state["palette"]):
            return None
        return {c: state["weights"].get(c, Fraction(0)) for c in ctx.ports}


def greedy_color_algorithm() -> SimulatedECWeights:
    """The greedy-by-colour algorithm packaged for the adversary/benches.

    The palette is derived from each input graph; the run length is exactly
    the palette size (``O(Delta)`` for ``O(Delta)``-colourings).
    """
    return SimulatedECWeights(
        GreedyColorFM(),
        globals_factory=lambda g: {"palette": g.colors()},
        max_rounds_factory=lambda g: len(g.colors()) + 1,
        name="greedy-by-colour",
    )
