"""Residual proposal dynamics for maximal fractional matching.

A port-symmetric algorithm in the spirit of the edge-packing algorithms of
Astrand et al. [4] / Astrand-Suomela [3] (the ``O(Delta)`` upper bound the
paper refers to).  Every round:

1. every *unsaturated* node splits its residual capacity evenly over its
   *active* ports (ports whose edge still has both endpoints unsaturated)
   and proposes that amount on each;
2. every active edge increases its weight by the minimum of its two
   endpoints' proposals;
3. saturated nodes announce it, deactivating their incident edges.

Exact rational arithmetic keeps the dynamics well-defined.  Every round the
node with the locally minimal proposal becomes saturated (it receives its
own proposal back on every active port), so the process terminates in at
most ``n`` rounds and — because an edge only deactivates when an endpoint
saturates — terminates in a *maximal* FM.  On bounded-degree graphs the
round count empirically grows with ``Delta``, not ``n`` (experiment E2).

The algorithm uses no identifiers and no colours beyond port labels, so it
runs unchanged in the EC, PO and ID models (set ``model`` at construction).
On EC multigraphs a loop's echo returns the node's own proposal, assigning
the loop the full per-port share — the correct universal-cover behaviour.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Hashable, Optional

from ..local.algorithm import DistributedAlgorithm, SimulatedECWeights
from ..local.context import NodeContext

Node = Hashable

__all__ = ["ProposalFM", "proposal_algorithm"]

ZERO = Fraction(0)
ONE = Fraction(1)

#: message meaning "I am saturated / this edge is closed on my side"
_CLOSED = "closed"


class ProposalFM(DistributedAlgorithm):
    """State machine for the proposal dynamics (any of EC / PO / ID)."""

    def __init__(self, model: str = "EC"):
        if model not in ("EC", "PO", "ID"):
            raise ValueError(f"unsupported model {model!r}")
        self.model = model

    def initial_state(self, ctx: NodeContext) -> Dict[str, Any]:
        return {
            "residual": ONE,
            "weights": {p: ZERO for p in ctx.ports},
            "active": set(ctx.ports),
            "done": len(ctx.ports) == 0,
        }

    def _proposal(self, state: Dict[str, Any]) -> Optional[Fraction]:
        if state["residual"] == ZERO or not state["active"]:
            return None
        return Fraction(state["residual"], len(state["active"]))

    def send(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Any]:
        if state["done"]:
            return {}
        p = self._proposal(state)
        out: Dict[Any, Any] = {}
        for port in ctx.ports:
            if port in state["active"]:
                out[port] = p if p is not None else _CLOSED
        return out

    def receive(self, state: Dict[str, Any], ctx: NodeContext, inbox: Dict[Any, Any]) -> Dict[str, Any]:
        if state["done"]:
            return state
        state = dict(state)
        state["weights"] = dict(state["weights"])
        state["active"] = set(state["active"])
        my_proposal = self._proposal(state)
        for port in list(state["active"]):
            theirs = inbox.get(port, _CLOSED)
            if theirs == _CLOSED or my_proposal is None:
                # the edge is closed by whichever endpoint is saturated
                state["active"].discard(port)
                continue
            increment = min(my_proposal, theirs)
            state["weights"][port] += increment
            state["residual"] -= increment
        if state["residual"] == ZERO:
            state["active"] = set()
        if not state["active"]:
            state["done"] = True
        return state

    def output(self, state: Dict[str, Any], ctx: NodeContext) -> Optional[Dict[Any, Fraction]]:
        return dict(state["weights"]) if state["done"] else None

    def snapshot(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Fraction]:
        """Current weights — the meaningful partial answer of the dynamics.

        Used when a ``t``-time evaluation cuts the run off after ``t``
        rounds (see :func:`repro.local.runtime.run_rounds`): by locality the
        weights held after ``t`` rounds are what any ``t``-round version of
        the algorithm would announce.
        """
        return dict(state["weights"])


def proposal_algorithm() -> SimulatedECWeights:
    """EC-model packaging of the proposal dynamics for the adversary/benches."""
    return SimulatedECWeights(
        ProposalFM("EC"),
        max_rounds_factory=lambda g: 4 * (g.num_nodes() + g.num_edges() + 2),
        name="proposal-dynamics",
    )
