"""The simulation OI <= ID (paper, Section 5.4, Lemmas 5-7, Corollary 9).

The paper's subtlest step: unique identifiers are unbounded, so the
Naor-Stockmeyer machinery does not apply to the FM outputs directly.  The
resolution, reproduced executably here:

* **Step (i)** — the *saturation indicator* ``A*`` (does the algorithm
  saturate the centre node?) has finitely many outputs, so Ramsey extraction
  (:mod:`repro.core.ramsey`) yields an identifier set ``I`` on which ``A*``
  is order-invariant over any chosen family of loopy neighbourhood
  templates (Lemma 5); on loopy neighbourhoods order-invariance plus
  maximality force ``A`` to saturate the centre under every order-respecting
  assignment from ``I`` (Lemma 6).
* **Step (ii)** — passing to a sparse subset ``J`` (every ``(m+1)``-th
  identifier of ``I``), the full algorithm ``A`` becomes order-invariant on
  loopy neighbourhoods: changing one node's identifier inside ``J`` cannot
  change the output, because any change would start a disagreement between
  two *fully saturated* FMs that the propagation principle (Fact 8) must
  carry beyond the algorithm's horizon (Lemma 7).

:class:`OIFromID` packages the result: an OI-algorithm that assigns
identifiers from ``J`` canonically along the given order and runs the
ID-algorithm — Corollary 9's ``A_OI``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import networkx as nx

from ..graphs.cover import TruncatedCoverPO, universal_cover_po
from ..graphs.digraph import POGraph
from ..local.algorithm import DistributedAlgorithm
from ..local.identifiers import assign_ids_respecting_order, order_respecting_assignments
from ..local.runtime import IDNetwork, run_rounds
from .ramsey import order_invariant_subset
from .sim_po_oi import OIAlgorithm, ordered_cover_nodes

Node = Hashable
Slot = Tuple[str, Any]

__all__ = [
    "LoopyNeighbourhood",
    "loopy_oi_neighbourhood",
    "ball_size_bound",
    "evaluate_id_on_neighbourhood",
    "saturation_of_root",
    "lemma6_check",
    "lemma7_check",
    "extract_order_invariant_ids",
    "OIFromID",
]

ONE = Fraction(1)


@dataclass
class LoopyNeighbourhood:
    """A loopy OI-neighbourhood ``tau_t(UG, <, v)`` (paper, Section 5.4).

    Attributes
    ----------
    base_graph:
        The loopy PO-graph ``G``.
    base_node:
        The node ``v`` whose cover neighbourhood this is.
    t:
        The radius.
    cover:
        The truncated universal cover around ``v``.
    ordered_nodes:
        The cover's nodes in the canonical (Appendix A) linear order.
    """

    base_graph: POGraph
    base_node: Node
    t: int
    cover: TruncatedCoverPO
    ordered_nodes: List[Node]

    @property
    def root(self) -> Node:
        """The centre of the neighbourhood (the empty walk)."""
        return self.cover.root

    @property
    def size(self) -> int:
        """Number of nodes in the neighbourhood."""
        return len(self.ordered_nodes)

    def undirected(self) -> "nx.Graph":
        """The neighbourhood as a simple undirected graph on cover labels."""
        out = nx.Graph()
        out.add_nodes_from(self.cover.tree.nodes())
        for e in self.cover.tree.edges():
            out.add_edge(e.tail, e.head)
        return out


def loopy_oi_neighbourhood(g: POGraph, v: Node, t: int) -> LoopyNeighbourhood:
    """Build ``tau_t(UG, <, v)`` with the canonical order inherited from ``T``."""
    cover = universal_cover_po(g, v, t)
    return LoopyNeighbourhood(
        base_graph=g, base_node=v, t=t, cover=cover, ordered_nodes=ordered_cover_nodes(g, cover)
    )


def ball_size_bound(delta: int, radius: int) -> int:
    """Upper bound on nodes in a radius-``radius`` ball of maximum degree ``delta``.

    Used for the sparsity parameter ``m`` of Section 5.4, step (ii): ``J``
    keeps every ``(m+1)``-th identifier of ``I`` where ``m`` bounds a
    ``(2t+1)``-neighbourhood.
    """
    if radius == 0 or delta == 0:
        return 1
    if delta == 1:
        return 2
    # 1 + delta * sum_{i<radius} (delta-1)^i
    total = 1
    frontier = delta
    for _ in range(radius):
        total += frontier
        frontier *= delta - 1
    return total


def evaluate_id_on_neighbourhood(
    algorithm: DistributedAlgorithm,
    nbhd: LoopyNeighbourhood,
    phi: Dict[Node, int],
    globals_: Optional[Dict[str, Any]] = None,
) -> Dict[Node, Optional[Dict[Node, Fraction]]]:
    """Run an ID-model state machine on ``phi(tau)`` for ``t`` rounds.

    Returns, per cover node, the announced/snapshotted output translated
    back from identifiers to cover labels (``{neighbour label: weight}``);
    only the *root's* entry is guaranteed meaningful — by locality it equals
    the algorithm's output on any graph extending the neighbourhood.
    """
    if algorithm.model != "ID":
        raise ValueError("expected an ID-model algorithm")
    tree = nbhd.undirected()
    relabelled = nx.relabel_nodes(tree, phi, copy=True)
    inverse = {i: v for v, i in phi.items()}
    network = IDNetwork(relabelled, globals_=globals_ or {})
    # t-time = t - 1 message rounds (paper tau_t convention; see sim_po_oi)
    result = run_rounds(network, algorithm, rounds=max(nbhd.t - 1, 0))
    translated: Dict[Node, Optional[Dict[Node, Fraction]]] = {}
    for ident, out in result.outputs.items():
        label = inverse[ident]
        if out is None:
            translated[label] = None
        else:
            translated[label] = {inverse[nbr]: Fraction(w) for nbr, w in out.items()}
    return translated


def saturation_of_root(
    nbhd: LoopyNeighbourhood,
    outputs: Dict[Node, Optional[Dict[Node, Fraction]]],
) -> int:
    """The indicator ``A*`` at the centre: 1 iff the root's load equals 1."""
    root_out = outputs[nbhd.root]
    if root_out is None:
        raise RuntimeError("the algorithm announced no output at the root")
    load = sum(root_out.values(), Fraction(0))
    return 1 if load == ONE else 0


def lemma6_check(
    algorithm: DistributedAlgorithm,
    nbhd: LoopyNeighbourhood,
    pool: Sequence[int],
    globals_: Optional[Dict[str, Any]] = None,
) -> bool:
    """Lemma 6: the algorithm saturates the centre under an order-respecting
    assignment from the pool."""
    phi = assign_ids_respecting_order(nbhd.ordered_nodes, pool)
    outputs = evaluate_id_on_neighbourhood(algorithm, nbhd, phi, globals_)
    return saturation_of_root(nbhd, outputs) == 1


def lemma7_check(
    algorithm: DistributedAlgorithm,
    nbhd: LoopyNeighbourhood,
    pool: Sequence[int],
    limit: int = 5,
    globals_: Optional[Dict[str, Any]] = None,
) -> bool:
    """Lemma 7: all order-respecting assignments from the (sparse) pool give
    the same root output."""
    reference: Optional[Dict[Node, Fraction]] = None
    for phi in order_respecting_assignments(nbhd.ordered_nodes, pool, limit):
        outputs = evaluate_id_on_neighbourhood(algorithm, nbhd, phi, globals_)
        root_out = outputs[nbhd.root]
        if root_out is None:
            return False
        if reference is None:
            reference = root_out
        elif reference != root_out:
            return False
    return True


def extract_order_invariant_ids(
    algorithm: DistributedAlgorithm,
    neighbourhoods: Sequence[LoopyNeighbourhood],
    universe: Sequence[int],
    target: int,
    globals_: Optional[Dict[str, Any]] = None,
) -> Optional[List[int]]:
    """Lemma 5, executably: find identifiers on which ``A*`` is order-invariant.

    Colours each neighbourhood's size-``k`` identifier subsets by the
    saturation pattern the assignment induces at the centre, then runs the
    finite Ramsey refinement.  Returns the identifier set ``I`` or ``None``
    when the universe is too small.
    """
    templates = []
    for nbhd in neighbourhoods:
        def behaviour(ids: Tuple[int, ...], nbhd=nbhd) -> Hashable:
            phi = {v: ids[i] for i, v in enumerate(nbhd.ordered_nodes)}
            outputs = evaluate_id_on_neighbourhood(algorithm, nbhd, phi, globals_)
            return saturation_of_root(nbhd, outputs)

        templates.append((nbhd.size, behaviour))
    found = order_invariant_subset(universe, templates, target)
    return None if found is None else found[0]


class OIFromID(OIAlgorithm):
    """Corollary 9's ``A_OI``: run the ID-algorithm under canonical identifiers.

    Given the sparse identifier set ``J``, the OI evaluation assigns the
    ``i``-th smallest identifier of ``J`` to the ``i``-th node of the
    ordered neighbourhood and runs the ID state machine for ``t`` rounds;
    by Lemma 7 the answer is independent of which order-respecting
    assignment was used, i.e. genuinely order-invariant.
    """

    def __init__(
        self,
        algorithm: DistributedAlgorithm,
        t: int,
        id_pool,
        globals_factory: Optional[Callable[["nx.Graph"], Dict[str, Any]]] = None,
        name: Optional[str] = None,
    ):
        if algorithm.model != "ID":
            raise ValueError("OIFromID wraps ID-model state machines")
        if t < 1:
            raise ValueError("state-machine adapters need t >= 1 (tau_0 hides the ports)")
        self.algorithm = algorithm
        self.t = t
        # the paper's J is an infinite set; accept either a finite sequence
        # or a factory ``n -> n identifiers`` standing in for one
        if callable(id_pool):
            self._pool_factory = id_pool
        else:
            fixed = sorted(id_pool)

            def _fixed_pool(n: int, fixed=fixed) -> List[int]:
                if n > len(fixed):
                    raise ValueError(
                        f"identifier pool of size {len(fixed)} cannot label {n} nodes"
                    )
                return fixed[:n]

            self._pool_factory = _fixed_pool
        self.globals_factory = globals_factory or (lambda tree: {})
        self.name = name or f"oi<=id[{type(algorithm).__name__}]"

    def evaluate(self, tree: POGraph, root: Node, ordered_nodes: List[Node]) -> Dict[Slot, Fraction]:
        from ..obs.tracer import current_tracer

        tracer = current_tracer()
        tracer.metrics.counter("sim.layer_runs", layer="oi_from_id", algorithm=self.name).inc()
        with tracer.span(
            "sim.oi_from_id",
            algorithm=self.name,
            neighbourhood=len(ordered_nodes),
            t=self.t,
        ):
            return self._evaluate(tree, root, ordered_nodes)

    def _evaluate(self, tree: POGraph, root: Node, ordered_nodes: List[Node]) -> Dict[Slot, Fraction]:
        pool = list(self._pool_factory(len(ordered_nodes)))
        phi = assign_ids_respecting_order(ordered_nodes, pool)
        undirected = nx.Graph()
        undirected.add_nodes_from(phi[v] for v in tree.nodes())
        for e in tree.edges():
            undirected.add_edge(phi[e.tail], phi[e.head])
        network = IDNetwork(undirected, globals_=self.globals_factory(undirected))
        # t-time in the paper's tau_t sense = t - 1 message rounds for a
        # machine whose nodes see their ports at initialisation; see the
        # radius-convention note in repro.core.sim_po_oi.  Only the root's
        # light cone runs: every cover node is still ranked above.
        result = run_rounds(network, self.algorithm, rounds=self.t - 1, root=phi[root])
        root_out = result.outputs[phi[root]]
        if root_out is None:
            raise RuntimeError(
                f"{self.name}: no output or snapshot at the root after {self.t} rounds"
            )
        slots: Dict[Slot, Fraction] = {}
        for e in tree.out_edges(root):
            slots[("out", e.color)] = Fraction(root_out[phi[e.head]])
        for e in tree.in_edges(root):
            slots[("in", e.color)] = Fraction(root_out[phi[e.tail]])
        return slots
