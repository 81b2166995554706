"""Algorithm interfaces for the LOCAL simulator.

Two complementary presentations of a distributed algorithm are used in the
paper and mirrored here:

* **State machines** (:class:`DistributedAlgorithm`) — the operational view
  of Section 1.4: per round every node sends a message on each port, receives
  one on each port, and updates its state; eventually it announces an output.
* **Functions of views** (paper, Eq. (1)) — a ``t``-time algorithm is just a
  map ``A(tau_t(G, v))``.  For the lower-bound machinery the only thing that
  matters is an algorithm's input/output behaviour on whole graphs, captured
  by :class:`ECWeightAlgorithm`: a deterministic, lift-invariant assignment
  of a weight to every incident colour of every node.

:class:`SimulatedECWeights` and :class:`SimulatedPOWeights` adapt the former
to the latter by running the simulator; they differ only in the model and
the network class.  Message-passing algorithms that consult only ports,
messages and declared globals are automatically lift-invariant — a loop's
echo semantics equals running on any simple lift (the neighbour across a
loop is a symmetric copy of oneself); the property-based tests verify this
against random 2-lifts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Dict, Hashable, Optional, Tuple

from ..graphs.multigraph import ECGraph
from ..obs.tracer import current_tracer
from .context import NodeContext, Port
from .runtime import ECNetwork, PONetwork, RunRecord, replay, run

Node = Hashable
Color = Hashable

__all__ = [
    "DistributedAlgorithm",
    "ECWeightAlgorithm",
    "SimulatedECWeights",
    "POWeightAlgorithm",
    "SimulatedPOWeights",
]


class DistributedAlgorithm(ABC):
    """A synchronous message-passing node algorithm.

    Subclasses define the per-node behaviour; the runtime in
    :mod:`repro.local.runtime` executes it on every node of a network in
    lock step.  ``model`` declares which network kinds the algorithm expects
    (``"EC"``, ``"PO"`` or ``"ID"``).
    """

    model: str = "EC"

    @abstractmethod
    def initial_state(self, ctx: NodeContext) -> Any:
        """State of a node before the first round."""

    @abstractmethod
    def send(self, state: Any, ctx: NodeContext) -> Dict[Port, Any]:
        """Messages for this round keyed by port; omitted ports send nothing."""

    @abstractmethod
    def receive(self, state: Any, ctx: NodeContext, inbox: Dict[Port, Any]) -> Any:
        """Consume this round's inbox (port -> message) and return the new state."""

    @abstractmethod
    def output(self, state: Any, ctx: NodeContext) -> Optional[Any]:
        """The node's local output, or ``None`` while still running.

        An announced output is final (the LOCAL model's halting rule): once
        a node announces a non-``None`` output, later rounds leave it
        unchanged.  A root-only :func:`~repro.local.runtime.run_rounds`
        stops as soon as its root announces, relying on this.
        """

    def snapshot(self, state: Any, ctx: NodeContext) -> Optional[Any]:
        """Provisional output for a node cut off mid-run (see ``run_rounds``).

        Algorithms whose state carries a meaningful partial answer (e.g. the
        current edge weights of the proposal dynamics) override this; the
        default reports nothing.
        """
        return self.output(state, ctx)


class ECWeightAlgorithm(ABC):
    """A deterministic EC-model algorithm producing per-colour edge weights.

    This is the interface the Section 4 adversary consumes: evaluating the
    algorithm on a whole EC-graph yields, for every node, a mapping from each
    incident edge colour to the weight the node announces for that edge.
    (A node's local output in the maximal-FM problem is exactly "the weight
    ``y(e)`` of each incident edge ``e``" — Section 1.4.)

    Implementations must be *lift-invariant* (paper condition (2)): the
    output at a node depends only on its view, never on node labels.  Every
    algorithm that is honestly local satisfies this by construction; the
    helper :func:`repro.core.saturation.check_lift_invariance` tests it.
    They must also be deterministic, so that the Section 4 construction is
    a function of the algorithm and Delta: the sweep engine's run memo
    reuses a cell's verdict on that ground
    (:func:`repro.engine.grid.run_cell`).
    """

    #: the algorithm's declared run-time as a function of the graph; purely
    #: informational (used by benches to report round counts).
    name: str = "ec-algorithm"

    @abstractmethod
    def run_on(self, g: ECGraph) -> Dict[Node, Dict[Color, Fraction]]:
        """Evaluate on ``g``; returns ``{node: {incident colour: weight}}``."""

    def rounds_used(self, g: ECGraph) -> Optional[int]:
        """Communication rounds the last/typical run takes, if known."""
        return None


class POWeightAlgorithm(ABC):
    """A deterministic PO-model algorithm producing per-slot arc weights.

    The PO analogue of :class:`ECWeightAlgorithm`: evaluating on a PO-graph
    yields, for every node, a mapping from each incident slot —
    ``("out", c)`` or ``("in", c)`` — to the weight announced for the arc in
    that slot.  A directed loop occupies both slots and the two announced
    values must agree (it is a single arc).  Implementations must be
    lift-invariant.
    """

    name: str = "po-algorithm"

    @abstractmethod
    def run_on(self, g) -> Dict[Node, Dict[Any, Fraction]]:
        """Evaluate on a :class:`~repro.graphs.digraph.POGraph`."""

    def rounds_used(self, g) -> Optional[int]:
        """Communication rounds of the last/typical run, if known."""
        return None


class _SimulatedWeights:
    """The adapters' one body: run a :class:`DistributedAlgorithm` in the simulator.

    A subclass sets ``model`` and ``network``, the matching network class of
    :mod:`repro.local.runtime`.  ``algorithm`` is a state machine of that
    model whose node outputs are mappings ``{port: weight}``;
    ``globals_factory`` (``g -> dict``) gives a run's globally known
    parameters (e.g. the number of edge colours) and ``max_rounds_factory``
    (``g -> int``) bounds its length.
    """

    model: str
    network: type

    def __init__(self, algorithm: DistributedAlgorithm, globals_factory=None, max_rounds_factory=None, name: Optional[str] = None):
        if algorithm.model != self.model:
            raise ValueError(f"{type(self).__name__} requires {self.model}-model algorithms")
        self.algorithm = algorithm
        self.globals_factory = globals_factory or (lambda g: {})
        self.max_rounds_factory = max_rounds_factory or (lambda g: 4 * (len(g.colors()) + g.num_nodes() + 1))
        self.name = name or type(algorithm).__name__
        self._last_rounds: Optional[int] = None
        #: total messages delivered in the most recent run (all rounds)
        self.last_message_total: Optional[int] = None

    def run_on(self, g) -> Dict[Node, Dict[Any, Fraction]]:
        return self._run(g, record=False)[0]

    def _run(self, g, record: bool) -> Tuple[Dict[Node, Dict[Any, Fraction]], Optional[RunRecord]]:
        with current_tracer().span(
            "algorithm.run_on", algorithm=self.name, model=self.model, nodes=g.num_nodes()
        ) as span:
            network = self.network(g, globals_=self.globals_factory(g))
            result = run(network, self.algorithm, max_rounds=self.max_rounds_factory(g), record=record)
            if not result.halted:
                raise RuntimeError(
                    f"{self.name} did not halt within {self.max_rounds_factory(g)} rounds"
                )
            self._last_rounds = result.rounds
            self.last_message_total = sum(result.message_counts)
            span.set(rounds=result.rounds, messages=self.last_message_total)
        return {v: dict(out) for v, out in result.outputs.items()}, result.record

    def rounds_used(self, g) -> Optional[int]:
        """Rounds consumed by the most recent run (or replay) of this adapter."""
        return self._last_rounds


class SimulatedECWeights(_SimulatedWeights, ECWeightAlgorithm):
    """Adapter: run an EC-model :class:`DistributedAlgorithm` in the simulator.

    Beside :meth:`run_on`, the Section 4 construction keeps each run's
    record and replays a mix from its parents' records
    (:func:`repro.local.runtime.replay`): :meth:`record_on`,
    :meth:`replay_on` and :meth:`lifted_record`.  A machine that reads its
    node label (``"node"`` in its ``sanitizer_allow``, as private coins
    do) keeps no record, so every run of it is a full run.
    """

    model = "EC"
    network = ECNetwork

    def record_on(self, g: ECGraph) -> Tuple[Dict[Node, Dict[Color, Fraction]], Optional[RunRecord]]:
        """:meth:`run_on`, also returning the run's record (``None`` if none is kept)."""
        return self._run(g, record="node" not in getattr(self.algorithm, "sanitizer_allow", ()))

    def replay_on(
        self, gh: ECGraph, join_eid: int, g_side: Tuple, h_side: Tuple
    ) -> Tuple[Dict[Node, Dict[Color, Fraction]], Optional[RunRecord]]:
        """Outputs and record on ``gh``, the mix of ``G`` and ``H``, replayed where exact.

        ``join_eid`` is the joining edge's id (:func:`~repro.graphs.lifts.mix`)
        and each side is the ``(record, outputs)`` of its graph's run.  Where
        the replay would not be exact (no record, other globals, see
        :func:`~repro.local.runtime.replay`), or it raises, ``gh`` runs in
        full (:meth:`record_on`) and that run's verdict stands.  A node the
        replay did not simulate shares its counterpart's output dict.
        """
        (g_record, g_out), (h_record, h_out) = g_side, h_side
        record = None
        if g_record is not None and h_record is not None:
            network = ECNetwork(gh, globals_=self.globals_factory(gh))
            try:
                record = replay(
                    network, self.algorithm, g_record, h_record, gh.edge(join_eid),
                    max_rounds=self.max_rounds_factory(gh),
                )
            except Exception:  # the local.replay span notes the error; the full run's verdict stands
                record = None
        if record is None:
            return self.record_on(gh)
        self._last_rounds = record.rounds
        self.last_message_total = sum(record.counts)
        sides = (g_out, h_out)
        outputs = {v: sides[v[0]][v[1]] for v in gh.nodes()}
        for v, out in record.outputs.items():
            outputs[v] = dict(out)
        return outputs, record

    def lifted_record(self, lift: ECGraph, record: Optional[RunRecord]) -> Optional[RunRecord]:
        """The record of ``lift``, a 2-lift of the graph ``record`` was kept on.

        ``None`` where it would not be exact: without a base record, or if
        the lift's globals differ from the base's.
        """
        if record is None or self.globals_factory(lift) != record.globals_:
            return None
        return record.lifted()


class SimulatedPOWeights(_SimulatedWeights, POWeightAlgorithm):
    """Adapter: run a PO-model :class:`DistributedAlgorithm` in the simulator."""

    model = "PO"
    network = PONetwork
