"""Synchronous LOCAL runtime (paper, Section 1.4).

Executes a :class:`repro.local.algorithm.DistributedAlgorithm` on a network
in lock-step rounds: every node sends a message on each port, the network
delivers them, every node updates its state; nodes announce outputs and the
run stops once all have.  Message size and local computation are unbounded,
exactly as in the LOCAL model.

:func:`run` (until every node outputs) and :func:`run_rounds` (a fixed
budget, then snapshots; with a ``root``, of that node's light cone only)
share one round loop.

Three network adapters realise the models:

* :class:`ECNetwork` — ports are edge colours of an :class:`ECGraph`.  A
  message sent on a *loop* port is delivered back to the sender on the same
  port: this is precisely the universal-cover semantics (the neighbour across
  a loop is a symmetric copy of the sender), making every simulator run on a
  multigraph equal to the corresponding run on any simple lift.
* :class:`PONetwork` — ports are ``("out", c)`` / ``("in", c)`` slots of a
  :class:`POGraph`; a message sent out on colour ``c`` over arc ``(u, v)``
  arrives at ``v``'s ``("in", c)`` port, and vice versa.  A directed loop
  wires the node's own out-slot to its in-slot.
* :class:`IDNetwork` — a simple networkx graph whose integer node labels are
  the unique identifiers; ports are neighbour identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import networkx as nx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .algorithm import DistributedAlgorithm
    from .sanitize import AccessLog

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph
from ..obs.tracer import current_tracer
from .context import NodeContext, Port

Node = Hashable

__all__ = ["Network", "ECNetwork", "PONetwork", "IDNetwork", "RunResult", "run", "run_rounds"]


class Network:
    """Abstract network: contexts plus message routing.

    A subclass lists its nodes (:meth:`nodes`), builds one node's context
    (:meth:`_make_context`) and defines :meth:`route`.  A node's context is
    built on the first :meth:`context` call for it and kept, so a run of a
    light cone (``run_rounds(..., root=)``) builds only the cone's contexts.
    """

    model: str
    _contexts: Dict[Node, NodeContext]

    def nodes(self) -> List[Node]:
        """All nodes of the network."""
        raise NotImplementedError

    def context(self, v: Node) -> NodeContext:
        """The local context node ``v`` executes under (``KeyError`` if none)."""
        ctx = self._contexts.get(v)
        if ctx is None:
            ctx = self._contexts[v] = self._make_context(v)
        return ctx

    def _make_context(self, v: Node) -> NodeContext:
        raise NotImplementedError

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        """Destination ``(node, port)`` of a message sent by ``v`` on ``port``."""
        raise NotImplementedError


class ECNetwork(Network):
    """Network over an :class:`ECGraph`; ports are incident edge colours."""

    model = "EC"

    def __init__(self, g: ECGraph, globals_: Optional[Dict[str, Any]] = None):
        self.graph = g
        # Routing reads go to a frozen kernel snapshot taken here: later
        # mutations of the view cannot skew an in-flight run, and the hot
        # per-message lookups bypass the mutable-view layer entirely.
        self.kernel = g.kernel
        self.globals_ = dict(globals_ or {})
        self._contexts = {}

    def nodes(self) -> List[Node]:
        return self.kernel.nodes()

    def _make_context(self, v: Node) -> NodeContext:
        ports = tuple(sorted(self.kernel.incident_colors(v), key=repr))
        return NodeContext(node=v, model="EC", ports=ports, globals=self.globals_)

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        edge = self.kernel.edge_at(v, port)
        if edge is None:
            raise KeyError(f"node {v!r} has no port {port!r}")
        if edge.is_loop:
            return (v, port)  # the echo: a loop's neighbour is a copy of oneself
        return (edge.other(v), port)


class PONetwork(Network):
    """Network over a :class:`POGraph`; ports are directed colour slots."""

    model = "PO"

    def __init__(self, g: POGraph, globals_: Optional[Dict[str, Any]] = None):
        self.graph = g
        # Frozen routing snapshot; see ECNetwork.__init__.
        self.kernel = g.kernel
        self.globals_ = dict(globals_ or {})
        self._contexts = {}

    def nodes(self) -> List[Node]:
        return self.kernel.nodes()

    def _make_context(self, v: Node) -> NodeContext:
        ports = tuple(
            [("out", c) for c in sorted(self.kernel.out_colors(v), key=repr)]
            + [("in", c) for c in sorted(self.kernel.in_colors(v), key=repr)]
        )
        return NodeContext(node=v, model="PO", ports=ports, globals=self.globals_)

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        kind, color = port
        if kind == "out":
            arc = self.kernel.out_edge(v, color)
            if arc is None:
                raise KeyError(f"node {v!r} has no out-port {color!r}")
            return (arc.head, ("in", color))
        if kind == "in":
            arc = self.kernel.in_edge(v, color)
            if arc is None:
                raise KeyError(f"node {v!r} has no in-port {color!r}")
            return (arc.tail, ("out", color))
        raise KeyError(f"bad PO port {port!r}")


class IDNetwork(Network):
    """Network over a simple networkx graph; node labels are identifiers."""

    model = "ID"

    def __init__(self, g: "nx.Graph", globals_: Optional[Dict[str, Any]] = None):
        if any(u == v for u, v in g.edges()):
            raise ValueError("ID-graphs are simple: no self-loops allowed")
        self.graph = g
        self.globals_ = dict(globals_ or {})
        self._contexts = {}

    def nodes(self) -> List[Node]:
        return list(self.graph.nodes())

    def _make_context(self, v: Node) -> NodeContext:
        if v not in self.graph:
            raise KeyError(v)
        return NodeContext(
            node=v,
            model="ID",
            ports=tuple(sorted(self.graph.neighbors(v))),
            identifier=v,
            globals=self.globals_,
        )

    def route(self, v: Node, port: Port, message: Any) -> Tuple[Node, Port]:
        if not self.graph.has_edge(v, port):
            raise KeyError(f"node {v!r} has no neighbour {port!r}")
        return (port, v)


@dataclass
class RunResult:
    """Outcome of a simulator run.

    Attributes
    ----------
    outputs:
        Local output of each node (``None`` for nodes that never halted;
        under :func:`run_rounds`, their snapshot; with its ``root``, the
        root's alone).
    rounds:
        Number of communication rounds executed.
    halted:
        Whether every node announced an output (a snapshot is not one).
    states:
        Final internal state of each node (useful for debugging/tests),
        or of the root alone, like ``outputs``.
    message_counts:
        Messages delivered per round.
    """

    outputs: Dict[Node, Any]
    rounds: int
    halted: bool
    states: Dict[Node, Any] = field(default_factory=dict)
    message_counts: List[int] = field(default_factory=list)
    #: access log of a sanitized run (``None`` unless ``sanitize=True``)
    access_log: Optional["AccessLog"] = None


def _simulate(
    network: Network, algorithm: DistributedAlgorithm, limit: int, limit_name: str, *,
    snapshot: bool, sanitize: bool, sanitize_mode: str, tracer, span: str,
    root: Optional[Node] = None, **span_attrs: Any,
) -> RunResult:
    """The round loop behind :func:`run` and :func:`run_rounds`.

    Rounds execute while fewer than ``limit`` have and some node is still
    running.  With ``snapshot=False`` (:func:`run`) that is decided by
    polling every output under a ``local.poll`` span; with ``snapshot=True``
    (:func:`run_rounds`) by a short-circuiting check, and nodes still running
    at the end report ``algorithm.snapshot``, which ``halted`` ignores.

    With a ``root`` (snapshot runs only), just the root's light cone runs
    (:func:`_cone_round`) and the root alone is polled and reported.
    """
    if algorithm.model != network.model:
        raise ValueError(
            f"algorithm model {algorithm.model!r} does not match network model {network.model!r}"
        )
    if limit < 0:
        raise ValueError(f"{limit_name} must be non-negative, got {limit}")
    tracer = tracer if tracer is not None else current_tracer()
    nodes = network.nodes()
    depth = None
    if root is not None:
        depth = _light_cone(network, root, limit)
        span_attrs["cone"] = len(depth)
    ctxs = {v: network.context(v) for v in (nodes if depth is None else depth)}
    access_log = None
    if sanitize:
        from .sanitize import wrap_contexts

        ctxs, access_log = wrap_contexts(ctxs, network.model, algorithm, mode=sanitize_mode)
    with tracer.span(
        span, model=network.model, algorithm=type(algorithm).__name__, nodes=len(nodes), **span_attrs
    ) as run_span:
        if depth is not None:
            nodes = [root]  # the one node polled and reported
        states = {v: algorithm.initial_state(ctxs[v]) for v in ctxs}
        announced: Dict[Node, Any] = {}

        def running() -> bool:
            nonlocal announced
            if snapshot:
                return any(algorithm.output(states[v], ctxs[v]) is None for v in nodes)
            with tracer.span("local.poll") as poll_span:
                announced = {v: algorithm.output(states[v], ctxs[v]) for v in nodes}
                pending = sum(1 for o in announced.values() if o is None)
                poll_span.set(pending=pending)
            return pending > 0

        message_counts: List[int] = []
        while len(message_counts) < limit and running():
            with tracer.span("local.round", round=len(message_counts)) as round_span:
                if depth is None:
                    inboxes: Dict[Node, Dict[Port, Any]] = {v: {} for v in nodes}
                    count = 0
                    for v in nodes:
                        for port, message in algorithm.send(states[v], ctxs[v]).items():
                            target, tport = network.route(v, port, message)
                            inboxes[target][tport] = message
                            count += 1
                    for v in nodes:
                        states[v] = algorithm.receive(states[v], ctxs[v], inboxes[v])
                else:
                    reach = limit - len(message_counts)
                    count = _cone_round(network, algorithm, states, ctxs, depth, reach)
                message_counts.append(count)
                round_span.set(messages=count)
        rounds, messages = len(message_counts), sum(message_counts)
        if snapshot:
            outputs = {}
            for v in nodes:
                announced[v] = outputs[v] = algorithm.output(states[v], ctxs[v])
                if announced[v] is None:
                    outputs[v] = algorithm.snapshot(states[v], ctxs[v])
        else:
            if rounds == limit:
                running()  # the limit, not a poll, ended the loop
            outputs = announced
        halted = all(o is not None for o in announced.values())
        run_span.set(rounds=rounds, halted=halted, messages=messages)
        tracer.metrics.counter("local.runs", model=network.model).inc()
        tracer.metrics.counter("local.rounds", model=network.model).inc(rounds)
        tracer.metrics.counter("local.messages", model=network.model).inc(messages)
    if depth is not None:
        states = {root: states[root]}
    return RunResult(
        outputs=outputs, rounds=rounds, halted=halted, states=states,
        message_counts=message_counts, access_log=access_log,
    )


def _light_cone(network: Network, root: Node, radius: int) -> Dict[Node, int]:
    """Hop distance from ``root`` of every node within ``radius`` hops.

    A breadth-first search over each node's ports and their routes, so it
    serves EC, PO and ID networks alike; the dict lists nodes in BFS order,
    nearest first.
    """
    depth = {root: 0}
    frontier = [root]
    for d in range(1, radius + 1):
        reached = []
        for v in frontier:
            for port in network.context(v).ports:
                u = network.route(v, port, None)[0]
                if u not in depth:
                    depth[u] = d
                    reached.append(u)
        frontier = reached
    return depth


def _cone_round(
    network: Network, algorithm: DistributedAlgorithm, states: Dict[Node, Any],
    ctxs: Dict[Node, NodeContext], depth: Dict[Node, int], reach: int,
) -> int:
    """One round of a light-cone run; returns the messages delivered.

    Nodes within ``reach`` hops of the root send, and nodes nearer than
    that receive: every neighbour of a receiver sent, so its inbox is whole
    and its new state is exact.  Messages to any other node are dropped.
    A run of ``R`` rounds calls this with ``reach`` ``R``, ``R - 1``, ...,
    so each node's state is exact exactly as long as the root's answer
    after ``R`` rounds can depend on it.
    """
    inboxes: Dict[Node, Dict[Port, Any]] = {v: {} for v, d in depth.items() if d < reach}
    delivered = 0
    for v, d in depth.items():
        if d > reach:
            break
        for port, message in algorithm.send(states[v], ctxs[v]).items():
            target, tport = network.route(v, port, message)
            inbox = inboxes.get(target)
            if inbox is not None:
                inbox[tport] = message
                delivered += 1
    for v, inbox in inboxes.items():
        states[v] = algorithm.receive(states[v], ctxs[v], inbox)
    return delivered


def run(
    network: Network,
    algorithm: DistributedAlgorithm,
    *,
    max_rounds: int = 10_000,
    sanitize: bool = False,
    sanitize_mode: str = "raise",
    tracer=None,
) -> RunResult:
    """Execute ``algorithm`` on ``network`` until all nodes output or the cap.

    Outputs are polled *before* the first round (a 0-round algorithm halts
    immediately with only its context) and after every round.  The returned
    ``rounds`` is the number of communication rounds actually performed —
    the quantity the paper's lower bound is about.  A negative
    ``max_rounds`` raises :class:`ValueError`.

    With ``sanitize=True`` every context is wrapped in the locality
    sanitizer (:mod:`repro.local.sanitize`): out-of-model reads raise a
    ``LocalityViolation`` (or are recorded when ``sanitize_mode="log"``)
    and the returned result carries the full ``access_log``.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one ``local.run`` span
    with nested per-round ``local.round`` spans (round number and message
    count) and ``local.poll`` spans timing the output polls; it defaults
    to the ambient tracer, a no-op unless installed via
    :func:`repro.obs.use_tracer`.

    All options are keyword-only.
    """
    return _simulate(
        network, algorithm, max_rounds, "max_rounds", snapshot=False,
        sanitize=sanitize, sanitize_mode=sanitize_mode, tracer=tracer, span="local.run",
    )


def run_rounds(
    network: Network,
    algorithm: DistributedAlgorithm,
    rounds: int,
    *,
    root: Optional[Node] = None,
    sanitize: bool = False,
    sanitize_mode: str = "raise",
    tracer=None,
) -> RunResult:
    """Execute exactly ``rounds`` communication rounds (or fewer if all halt).

    Unlike :func:`run`, nodes that have not announced an output by the end
    are *snapshotted*: their entry in ``outputs`` is whatever
    ``algorithm.snapshot(state, ctx)`` reports (``None`` if the algorithm
    offers no snapshot).  This realises evaluating a ``t``-time algorithm on
    a radius-``t`` view: whatever the node's state holds after ``t`` rounds
    is, by locality, its final answer on any graph agreeing on that view.
    ``halted`` is true only if every node announced an output; a negative
    ``rounds`` raises :class:`ValueError`.

    With ``root``, only the root's light cone runs: a node ``d`` hops from
    the root starts only if ``d <= rounds``, and in round ``k`` sends only
    if ``d <= rounds - k + 1`` and updates only if ``d <= rounds - k``.  A
    node's state after ``k`` rounds depends only on the nodes within ``k``
    hops, so the root ends in exactly the state a full run leaves it in.
    The run stops after ``rounds`` rounds or as soon as the root announces,
    since an announced output is final
    (:meth:`~repro.local.algorithm.DistributedAlgorithm.output`).
    ``outputs`` and ``states`` then hold the root alone, ``halted`` says
    whether it announced, and ``message_counts`` counts the messages
    delivered inside the cone.

    Per-round message delivery counts are recorded in
    ``RunResult.message_counts`` exactly as in :func:`run`, and ``tracer``
    behaves likewise (``local.run_rounds`` / ``local.round`` spans) except
    that outputs are not polled, so no ``local.poll`` span occurs.  With a
    ``root`` the ``local.run_rounds`` span also records the ``cone`` size.

    All options after ``rounds`` are keyword-only.
    """
    return _simulate(
        network, algorithm, rounds, "rounds", snapshot=True, sanitize=sanitize,
        sanitize_mode=sanitize_mode, tracer=tracer, span="local.run_rounds", root=root,
        budget=rounds,
    )
