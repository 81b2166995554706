"""Synchronous LOCAL runtime (paper, Section 1.4).

Executes a :class:`repro.local.algorithm.DistributedAlgorithm` on a network
in lock-step rounds: every node sends a message on each port, the network
delivers them, every node updates its state; nodes announce outputs and the
run stops once all have.  Message size and local computation are unbounded,
exactly as in the LOCAL model.

:func:`run` (until every node outputs) and :func:`run_rounds` (a fixed
budget, then snapshots; with a ``root``, of that node's light cone only)
share one round loop.

``run(..., record=True)`` also keeps the run's :class:`RunRecord`: every
node's inbox in every round.  :func:`replay` runs an EC algorithm on a
*mix* (two graphs joined by one edge at a loop of each, Section 4.3) from
its parents' records, simulating only the nodes whose inbox changed.  A
record of a 2-lift is its base's, read through the covering map
(:meth:`RunRecord.lifted`).

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

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Hashable, List, Optional, Tuple

import networkx as nx

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .algorithm import DistributedAlgorithm
    from .sanitize import AccessLog

from ..graphs.digraph import POGraph
from ..graphs.multigraph import ECGraph
from ..obs.tracer import current_tracer
from .context import NodeContext, Port

Node = Hashable

__all__ = [
    "Network", "ECNetwork", "PONetwork", "IDNetwork", "RunResult", "RunRecord",
    "run", "run_rounds", "replay",
]


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
    #: the run's record (``None`` unless ``run(..., record=True)``)
    record: Optional["RunRecord"] = None


def _simulate(
    network: Network, algorithm: DistributedAlgorithm, limit: int, limit_name: str, *,
    snapshot: bool, sanitize: bool, sanitize_mode: str, tracer, span: str,
    root: Optional[Node] = None, record: bool = False, **span_attrs: Any,
) -> RunResult:
    """The round loop behind :func:`run` and :func:`run_rounds`.

    Rounds execute while fewer than ``limit`` have and some node is still
    running.  With ``snapshot=False`` (:func:`run`) that is decided by
    polling every output under a ``local.poll`` span; with ``snapshot=True``
    (:func:`run_rounds`) by a short-circuiting check, and nodes still running
    at the end report ``algorithm.snapshot``, which ``halted`` ignores.

    With a ``root`` (snapshot runs only), just the root's light cone runs
    (:func:`_cone_round`) and the root alone is polled and reported.  With
    ``record`` (full runs only), every inbox and the poll at which each node
    first announced are kept in a :class:`_FullRecord`.
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
        log: Optional[List[Dict[Node, Dict[Port, Any]]]] = [] if record else None
        first: Dict[Node, int] = {}

        def running() -> bool:
            nonlocal announced
            if snapshot:
                return any(algorithm.output(states[v], ctxs[v]) is None for v in nodes)
            with tracer.span("local.poll") as poll_span:
                announced = {v: algorithm.output(states[v], ctxs[v]) for v in nodes}
                pending = sum(1 for o in announced.values() if o is None)
                poll_span.set(pending=pending)
            if record:
                for v, o in announced.items():
                    if o is not None and v not in first:
                        first[v] = len(message_counts)
            return pending > 0

        message_counts: List[int] = []
        while len(message_counts) < limit and running():
            with tracer.span("local.round", round=len(message_counts)) as round_span:
                if depth is None:
                    count = _full_round(network, algorithm, nodes, states, ctxs, log)
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
    kept = None
    if log is not None:
        kept = _FullRecord(network, algorithm, nodes, ctxs, states, log, list(message_counts), first)
    if depth is not None:
        states = {root: states[root]}
    return RunResult(
        outputs=outputs, rounds=rounds, halted=halted, states=states,
        message_counts=message_counts, access_log=access_log, record=kept,
    )


def _full_round(
    network: Network, algorithm: DistributedAlgorithm, nodes: List[Node],
    states: Dict[Node, Any], ctxs: Dict[Node, NodeContext],
    log: Optional[List[Dict[Node, Dict[Port, Any]]]] = None,
) -> int:
    """One round of every node; returns the messages delivered.

    With a ``log``, the round's inboxes are appended to it and each node
    receives a copy of its own, so a machine cannot change what was logged.
    """
    inboxes: Dict[Node, Dict[Port, Any]] = {v: {} for v in nodes}
    count = 0
    for v in nodes:
        for port, message in algorithm.send(states[v], ctxs[v]).items():
            target, tport = network.route(v, port, message)
            inboxes[target][tport] = message
            count += 1
    if log is None:
        for v in nodes:
            states[v] = algorithm.receive(states[v], ctxs[v], inboxes[v])
    else:
        log.append(inboxes)
        for v in nodes:
            states[v] = algorithm.receive(states[v], ctxs[v], dict(inboxes[v]))
    return count


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
    record: bool = False,
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

    With ``record=True`` the result also carries the run's
    :class:`RunRecord`, from which :func:`replay` runs its mixes.

    All options are keyword-only.
    """
    return _simulate(
        network, algorithm, max_rounds, "max_rounds", snapshot=False,
        sanitize=sanitize, sanitize_mode=sanitize_mode, tracer=tracer, span="local.run",
        record=record,
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


class RunRecord:
    """A run as its replays read it: every node's inbox in every round.

    For every round ``r`` recorded, ``inbox(r, v)`` is what node ``v``
    received (port -> message; a port that got nothing is absent) and
    ``count(r)`` is the number of messages delivered.  ``halt(v)`` is the
    poll at which ``v`` first announced, ``halts`` counts the nodes by it,
    and ``globals_`` and ``ports(v)`` are what each node ran with.
    ``extend(n)`` records rounds up to ``n`` by continuing the run past its
    halt, since a mix can run longer than its parents.  A lift or mix
    reads its parents' records and never writes them.  ``replayed`` is the
    set of nodes a replay simulated, and ``None`` where every node ran.
    """

    halts: Counter
    globals_: Dict[str, Any]
    replayed: Optional[FrozenSet[Node]] = None

    def inbox(self, r: int, v: Node) -> Dict[Port, Any]:
        raise NotImplementedError

    def count(self, r: int) -> int:
        raise NotImplementedError

    def halt(self, v: Node) -> int:
        raise NotImplementedError

    def ports(self, v: Node) -> Tuple[Port, ...]:
        raise NotImplementedError

    def extend(self, rounds: int) -> None:
        raise NotImplementedError

    def lifted(self) -> "RunRecord":
        """The record of a 2-lift, whose nodes are ``(side, v)`` (``unfold_loop``).

        An algorithm that reads no node label runs on a lift exactly as on
        its base (see the module docstring), so this reads the base's
        record through the covering map ``(side, v) -> v``.
        """
        return _Lift(self)


class _FullRecord(RunRecord):
    """The record a full run keeps; it extends by running every node on."""

    def __init__(self, network, algorithm, nodes, ctxs, states, log, counts, first):
        self.network, self.algorithm, self.nodes, self.ctxs = network, algorithm, nodes, ctxs
        self.states, self.log, self.counts, self.first = states, log, counts, first
        self.globals_ = network.globals_
        self.halts = Counter(first.values())

    def inbox(self, r, v):
        return self.log[r][v]

    def count(self, r):
        return self.counts[r]

    def halt(self, v):
        return self.first[v]

    def ports(self, v):
        return self.ctxs[v].ports

    def extend(self, rounds):
        while len(self.log) < rounds:
            self.counts.append(
                _full_round(self.network, self.algorithm, self.nodes, self.states, self.ctxs, self.log)
            )


class _Lift(RunRecord):
    """A 2-lift's record: its base's, read through ``(side, v) -> v``."""

    def __init__(self, base: RunRecord):
        self.base = base
        self.globals_ = base.globals_
        self.halts = Counter({r: 2 * n for r, n in base.halts.items()})

    def inbox(self, r, v):
        return self.base.inbox(r, v[1])

    def count(self, r):
        return 2 * self.base.count(r)

    def halt(self, v):
        return self.base.halt(v[1])

    def ports(self, v):
        return self.base.ports(v[1])

    def extend(self, rounds):
        self.base.extend(rounds)


#: a port that receives nothing this round
_NOTHING = object()


def _same_inbox(a: Dict[Port, Any], b: Dict[Port, Any]) -> bool:
    """Whether two inboxes hold equal messages, of one type, on the same ports."""
    return a.keys() == b.keys() and all(
        m is b[p] or (type(m) is type(b[p]) and m == b[p]) for p, m in a.items()
    )


class _Replay(RunRecord):
    """A mix's run, replayed from its parents' records (see :func:`replay`).

    Node ``(s, x)`` of the mix has counterpart ``x`` in parent ``s``.  A
    node is *live* from the first round its inbox differs from its
    counterpart's.  Until then it is in its counterpart's state, so it
    sends what its counterpart sent; only live nodes are simulated, and
    the record of every other node is its counterpart's.
    """

    def __init__(self, network, algorithm, parents, ends, color):
        self.network, self.algorithm, self.parents = network, algorithm, parents
        self.ends, self.color = ends, color
        self.globals_ = network.globals_
        #: per round, each live node's inbox
        self.log: List[Dict[Node, Dict[Port, Any]]] = []
        self.counts: List[int] = []
        #: live node -> its state, in the order the nodes went live
        self.states: Dict[Node, Any] = {}
        #: live node -> the first round its inbox differed
        self.start: Dict[Node, int] = {}
        #: live node -> the poll it first announced at, where that was not its counterpart's
        self.first: Dict[Node, int] = {}
        #: live nodes that have not announced yet
        self.pending: Dict[Node, None] = {}
        self.halts = parents[0].halts + parents[1].halts
        #: the live nodes and their outputs, once :func:`replay` halts
        self.replayed = frozenset()
        self.outputs: Dict[Node, Any] = {}

    @property
    def rounds(self) -> int:
        """Rounds recorded so far: the mix's round count once :func:`replay` returns."""
        return len(self.log)

    def inbox(self, r, v):
        box = self.log[r].get(v)
        return self.parents[v[0]].inbox(r, v[1]) if box is None else box

    def count(self, r):
        return self.counts[r]

    def halt(self, v):
        r = self.first.get(v)
        return self.parents[v[0]].halt(v[1]) if r is None else r

    def ports(self, v):
        return self.network.context(v).ports

    def extend(self, rounds):
        while len(self.log) < rounds:
            self._round()

    def halted(self) -> bool:
        """Whether every node has announced by the latest poll."""
        last = max((r for r, n in self.halts.items() if n), default=0)
        return not self.pending and last <= len(self.log)

    def _round(self) -> None:
        r = len(self.log)
        network, algorithm, parents = self.network, self.algorithm, self.parents
        for parent in parents:
            parent.extend(r + 1)
        # the message on every port whose sender no record speaks for: each
        # port of a live node (a port it leaves silent receives nothing),
        # and both ends of the joining edge, where a loop's echo was recorded
        slots: Dict[Tuple[Node, Port], Any] = {}
        for u, state in self.states.items():
            ctx = network.context(u)
            for port in ctx.ports:
                slots[network.route(u, port, None)] = _NOTHING
            for port, message in algorithm.send(state, ctx).items():
                slots[network.route(u, port, message)] = message
        g_end, h_end = self.ends
        for end, other in ((g_end, h_end), (h_end, g_end)):
            if other not in self.states:
                echo = parents[other[0]].inbox(r, other[1])
                slots[end, self.color] = echo.get(self.color, _NOTHING)
        boxes: Dict[Node, Tuple[Dict[Port, Any], Dict[Port, Any]]] = {}
        for u in self.states:
            recorded = parents[u[0]].inbox(r, u[1])
            boxes[u] = (recorded, dict(recorded))
        for (w, port), message in slots.items():
            pair = boxes.get(w)
            if pair is None:
                recorded = parents[w[0]].inbox(r, w[1])
                pair = boxes[w] = (recorded, dict(recorded))
            if message is _NOTHING:
                pair[1].pop(port, None)
            else:
                pair[1][port] = message
        log: Dict[Node, Dict[Port, Any]] = {}
        delta = 0
        for w, (recorded, box) in boxes.items():
            if w not in self.states:
                if _same_inbox(box, recorded):
                    continue
                self._go_live(w, r)
            log[w] = box
            delta += len(box) - len(recorded)
        for w, box in log.items():
            self.states[w] = algorithm.receive(self.states[w], network.context(w), dict(box))
        self.log.append(log)
        self.counts.append(parents[0].count(r) + parents[1].count(r) + delta)
        for w in list(self.pending):
            if algorithm.output(self.states[w], network.context(w)) is not None:
                del self.pending[w]
                self.first[w] = r + 1
                self.halts[r + 1] += 1

    def _go_live(self, w: Node, r: int) -> None:
        """Simulate ``w`` from round ``r`` on, from its counterpart's state then.

        That state is recomputed from ``initial_state`` and the
        counterpart's recorded inboxes; no other run's state is shared.
        """
        parent, x = self.parents[w[0]], w[1]
        ctx = self.network.context(w)
        state = self.algorithm.initial_state(ctx)
        for k in range(r):
            state = self.algorithm.receive(state, ctx, dict(parent.inbox(k, x)))
        self.states[w] = state
        self.start[w] = r
        halt = parent.halt(x)
        if halt > r:  # not announced yet: poll it from now on
            self.halts[halt] -= 1
            self.pending[w] = None


def replay(
    network: ECNetwork,
    algorithm: DistributedAlgorithm,
    g_record: RunRecord,
    h_record: RunRecord,
    join,
    *,
    max_rounds: int,
    tracer=None,
) -> Optional[RunRecord]:
    """Run ``algorithm`` on a mix by replaying its parents' records.

    ``network`` is an EC network over the mix ``GH`` of
    :func:`~repro.graphs.lifts.mix`: node ``(0, x)`` is ``G``'s ``x``,
    node ``(1, y)`` is ``H``'s ``y``, and ``join`` is the edge that joins
    them where each had a loop.  ``g_record`` and ``h_record`` are the
    records of ``G``'s and ``H``'s runs.  A node is simulated only from the
    first round its inbox differs from its counterpart's (a message that
    changed, or one that is new or missing), with its state then
    recomputed from its counterpart's inboxes; every other node keeps its
    counterpart's run.
    That is exact for a machine that reads no node label (``ctx.node``),
    so the caller must not replay one that does.

    Returns ``None``, running nothing, unless ``GH``, ``G`` and ``H`` have
    equal globals and both ends of ``join`` kept their ports.  Otherwise
    returns the mix's record once every node has announced, with
    ``rounds`` (the poll at which the last node announced, as in
    :func:`run`), ``counts`` (messages per round), ``replayed`` (the nodes
    simulated) and ``outputs`` (theirs).  Past ``max_rounds`` rounds it
    raises :class:`RuntimeError`, as may the machine; a caller re-runs such
    a mix in full.

    Opens one ``local.replay`` span (``nodes``; final ``replayed``,
    ``node_rounds``, ``rounds`` and ``messages``) and counts
    ``local.replays``.
    """
    g_end, h_end = (join.u, join.v) if join.u[0] == 0 else (join.v, join.u)
    if not (
        network.model == "EC"
        and network.globals_ == g_record.globals_ == h_record.globals_
        and network.context(g_end).ports == g_record.ports(g_end[1])
        and network.context(h_end).ports == h_record.ports(h_end[1])
    ):
        return None
    tracer = tracer if tracer is not None else current_tracer()
    record = _Replay(network, algorithm, (g_record, h_record), (g_end, h_end), join.color)
    with tracer.span(
        "local.replay", model=network.model, algorithm=type(algorithm).__name__,
        nodes=network.graph.num_nodes(),
    ) as span:
        while not record.halted():
            if record.rounds == max_rounds:
                raise RuntimeError(f"the replay did not halt within {max_rounds} rounds")
            record._round()
        rounds = record.rounds
        record.replayed = frozenset(record.states)
        record.outputs = {
            u: algorithm.output(state, network.context(u)) for u, state in record.states.items()
        }
        span.set(
            replayed=len(record.states),
            node_rounds=sum(rounds - start for start in record.start.values()),
            rounds=rounds,
            messages=sum(record.counts),
        )
        tracer.metrics.counter("local.replays", model=network.model).inc()
    return record
