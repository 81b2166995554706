"""Randomised maximal FM via random edge priorities (Appendix B's subject).

A classical randomised local algorithm in the style of Israeli-Itai/Luby,
formulated for fractional matchings:

1. every node draws a private random string (the *tape*; see
   :mod:`repro.local.randomized`) and exchanges it with its neighbours;
   each edge obtains the symmetric priority ``(min, max)`` of its two
   endpoint strings (salted with the edge colour in the EC model);
2. each round, every *live* edge (neither endpoint spent) whose priority
   is maximal among the live edges at both its endpoints *fires*: it takes
   ``min`` of the two residuals — both endpoints learn both residuals from
   the round's messages, so the increment is computed symmetrically;
3. nodes halt when spent or isolated from live edges.

Correctness is probabilistic, exactly as Appendix B requires of its
subject: if two *adjacent* edges draw equal priorities they fire
simultaneously and can overload their shared endpoint — the algorithm
"fails with some small probability" (controlled by the tape's bit width),
and Lemma 10's search finds tapes on which it never fails.  With locally
distinct priorities the output is a maximal FM: a fired edge saturates an
endpoint, and every round the globally top live edge fires, so the run
needs at most ``|E|`` rounds (logarithmic in practice; see the benches).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Any, Dict, Hashable, Optional, Tuple

import networkx as nx

from ..graphs.multigraph import ECGraph
from ..local.algorithm import DistributedAlgorithm, ECWeightAlgorithm
from ..local.context import NodeContext
from ..local.randomized import RandomTape, my_coins, tape_globals, uniform_tape
from ..local.runtime import ECNetwork, IDNetwork, run

Node = Hashable

__all__ = [
    "RandomPriorityFM",
    "RandomPriorityEC",
    "run_random_priority_id",
    "id_output_is_valid_fm",
    "failure_rate",
]

ZERO = Fraction(0)
ONE = Fraction(1)
_CLOSED = "closed"


class RandomPriorityFM(DistributedAlgorithm):
    """State machine for random-priority maximal FM (EC or ID model).

    Requires a tape in the network globals (key ``"random_tape"``).  Round
    1 exchanges coins; each subsequent round sends ``(residual, top live
    priority)`` on the live ports (or ``"closed"`` once spent) and fires
    the locally dominant edges.
    """

    #: reads ``ctx.node`` only through :func:`repro.local.randomized.my_coins`
    #: — private coins are an input delivered by the tape, not identity.
    sanitizer_allow = frozenset({"node"})

    def __init__(self, model: str = "EC"):
        if model not in ("EC", "ID"):
            raise ValueError(f"unsupported model {model!r}")
        self.model = model

    # -- helpers ---------------------------------------------------------
    def _priority(self, mine: int, theirs: int, port) -> Tuple:
        salt = repr(port) if self.model == "EC" else ""
        return (min(mine, theirs), max(mine, theirs), salt)

    def _top(self, state: Dict[str, Any]) -> Optional[Tuple]:
        live = [state["priority"][p] for p in state["live"]]
        return max(live) if live else None

    # -- protocol --------------------------------------------------------
    def initial_state(self, ctx: NodeContext) -> Dict[str, Any]:
        return {
            "phase": "coins",
            "residual": ONE,
            "weights": {p: ZERO for p in ctx.ports},
            "priority": {},
            "live": set(ctx.ports),
            "done": len(ctx.ports) == 0,
        }

    def send(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Any]:
        if state["done"]:
            return {}
        if state["phase"] == "coins":
            return {p: my_coins(ctx) for p in ctx.ports}
        if state["residual"] <= ZERO:
            return {p: _CLOSED for p in state["live"]}
        top = self._top(state)
        return {p: (state["residual"], top) for p in state["live"]}

    def receive(self, state: Dict[str, Any], ctx: NodeContext, inbox: Dict[Any, Any]) -> Dict[str, Any]:
        if state["done"]:
            return state
        state = dict(state)
        if state["phase"] == "coins":
            mine = my_coins(ctx)
            state["priority"] = {p: self._priority(mine, inbox[p], p) for p in ctx.ports}
            state["phase"] = "rounds"
            return state
        state["weights"] = dict(state["weights"])
        state["live"] = set(state["live"])
        my_top = self._top(state)
        my_residual = state["residual"]
        spent = my_residual <= ZERO
        for p in list(state["live"]):
            theirs = inbox.get(p, _CLOSED)
            if theirs == _CLOSED or spent:
                state["live"].discard(p)
                continue
            their_residual, their_top = theirs
            prio = state["priority"][p]
            if prio == my_top and prio == their_top:
                # dominant at both endpoints: fire symmetrically
                increment = min(my_residual, their_residual)
                state["weights"][p] += increment
                state["residual"] -= increment
        if state["residual"] <= ZERO:
            state["live"] = set()
        if not state["live"]:
            state["done"] = True
        return state

    def output(self, state: Dict[str, Any], ctx: NodeContext) -> Optional[Dict[Any, Fraction]]:
        return dict(state["weights"]) if state["done"] else None

    def snapshot(self, state: Dict[str, Any], ctx: NodeContext) -> Dict[Any, Fraction]:
        """Current weights (partial answer for cut-off evaluations)."""
        return dict(state["weights"])


class RandomPriorityEC(ECWeightAlgorithm):
    """EC packaging of :class:`RandomPriorityFM` under a fixed tape.

    Given the tape, this is a *deterministic* EC algorithm — the object
    ``A_rho`` of Appendix B.  Note it is **not** lift-invariant in general
    (two copies of a node hold independent coins), which is precisely why
    the paper must derandomise before applying the anonymous-model
    machinery; the adversary's ``deep_verify`` mode can exhibit this.
    """

    def __init__(self, tape: RandomTape, name: str = "random-priority"):
        self.tape = dict(tape)
        self.name = name
        self._last_rounds: Optional[int] = None

    def run_on(self, g: ECGraph) -> Dict[Node, Dict[Any, Fraction]]:
        missing = [v for v in g.nodes() if v not in self.tape]
        if missing:
            raise KeyError(f"tape missing entries for nodes {missing[:3]}...")
        network = ECNetwork(g, globals_=tape_globals(self.tape))
        result = run(network, RandomPriorityFM("EC"), max_rounds=4 * (g.num_edges() + 2))
        if not result.halted:
            raise RuntimeError("random-priority FM did not halt (priority deadlock?)")
        self._last_rounds = result.rounds
        return {v: dict(out) for v, out in result.outputs.items()}

    def rounds_used(self, g: ECGraph) -> Optional[int]:
        """Rounds of the most recent run (includes the coin-exchange round)."""
        return self._last_rounds


def run_random_priority_id(
    g: "nx.Graph", tape: RandomTape
) -> Tuple[Dict[Node, Dict[Node, Fraction]], int]:
    """Run the ID-model variant on a simple graph under a fixed tape.

    Returns ``(outputs, rounds)``; outputs are keyed by neighbour identifier
    as usual for the ID model.
    """
    network = IDNetwork(g, globals_=tape_globals(tape))
    result = run(network, RandomPriorityFM("ID"), max_rounds=4 * (g.number_of_edges() + 2))
    if not result.halted:
        raise RuntimeError("random-priority FM did not halt")
    return {v: dict(out) for v, out in result.outputs.items()}, result.rounds


def id_output_is_valid_fm(g: "nx.Graph", outputs: Dict[Node, Dict[Node, Fraction]]) -> bool:
    """Validate an ID-model FM output: consistent, feasible, maximal."""
    for u, v in g.edges():
        if outputs[u].get(v) != outputs[v].get(u):
            return False
    loads = {v: sum(outputs[v].values(), ZERO) for v in g.nodes()}
    if any(load > ONE for load in loads.values()):
        return False
    if any(w < ZERO for out in outputs.values() for w in out.values()):
        return False
    return all(loads[u] == ONE or loads[v] == ONE for u, v in g.edges())


def failure_rate(
    g: "nx.Graph", rng: random.Random, bits: int, samples: int = 100
) -> Fraction:
    """Empirical probability that a fresh tape yields an invalid output.

    Uses the **ID** variant, where edge priorities carry no colour salt:
    two adjacent edges tie whenever their endpoint coin pairs coincide, and
    a tie makes both fire, overloading the shared node.  Small ``bits``
    force such collisions; large ``bits`` drive the rate to zero — the
    quantitative backdrop of Appendix B's averaging argument.  (The EC
    variant is always correct: proper edge colours salt every local tie
    away.)
    """
    failures = 0
    for _ in range(samples):
        tape = uniform_tape(g.nodes(), rng, bits=bits)
        try:
            outputs, _ = run_random_priority_id(g, tape)
            ok = id_output_is_valid_fm(g, outputs)
        except Exception:
            ok = False
        failures += not ok
    return Fraction(failures, samples)
