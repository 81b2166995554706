"""The simulation EC <= PO (paper, Section 5.1 and Figure 8).

A ``t``-time PO-algorithm for maximal FM on graphs of maximum degree ``D``
yields a ``t``-time EC-algorithm for maximum degree ``D/2``:

1. interpret each undirected colour-``c`` edge ``{u, v}`` of the EC-graph as
   the two directed arcs ``(u, v)`` and ``(v, u)`` of colour ``c`` (an EC
   loop becomes one directed loop) — degrees exactly double;
2. run the PO-algorithm on the resulting PO-graph;
3. map the output back: the EC edge's weight is ``y(u, v) + y(v, u)``; an
   EC loop receives twice its directed loop's weight (the loop's two slots).

Feasibility transfers because a node's EC load equals its PO load slot for
slot; maximality transfers because saturation does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Optional

from ..graphs.multigraph import ECGraph
from ..graphs.ports import po_double_from_ec
from ..local.algorithm import ECWeightAlgorithm, POWeightAlgorithm

Node = Hashable
Color = Hashable

__all__ = ["ECFromPO", "ec_algorithm_from_po"]


class ECFromPO(ECWeightAlgorithm):
    """EC-model wrapper around a PO-model algorithm (the Section 5.1 move)."""

    def __init__(self, po_algorithm: POWeightAlgorithm):
        self.po_algorithm = po_algorithm
        self.name = f"ec<=po[{po_algorithm.name}]"
        self._last_rounds: Optional[int] = None

    def run_on(self, g: ECGraph) -> Dict[Node, Dict[Color, Fraction]]:
        from ..obs.tracer import current_tracer

        tracer = current_tracer()
        with tracer.span(
            "sim.ec_from_po",
            algorithm=self.name,
            nodes=g.num_nodes(),
            edges=g.num_edges(),
        ) as span:
            doubled = po_double_from_ec(g)
            po_out = self.po_algorithm.run_on(doubled)
            self._last_rounds = self.po_algorithm.rounds_used(doubled)
            span.set(rounds=self._last_rounds)
            tracer.metrics.counter("sim.layer_runs", layer="ec_from_po", algorithm=self.name).inc()
        ec_out: Dict[Node, Dict[Color, Fraction]] = {}
        for v in g.nodes():
            slots = po_out[v]
            per_color: Dict[Color, Fraction] = {}
            for e in g.incident_edges(v):
                c = e.color
                if e.is_loop:
                    w_out = Fraction(slots[("out", c)])
                    w_in = Fraction(slots[("in", c)])
                    if w_out != w_in:
                        raise ValueError(
                            f"PO algorithm announced {w_out} and {w_in} for the two "
                            f"slots of a single directed loop at {v!r}"
                        )
                    per_color[c] = w_out + w_in
                else:
                    per_color[c] = Fraction(slots[("out", c)]) + Fraction(slots[("in", c)])
            ec_out[v] = per_color
        return ec_out

    def rounds_used(self, g: ECGraph) -> Optional[int]:
        """Round count of the underlying PO run (the simulation adds none)."""
        return self._last_rounds


def ec_algorithm_from_po(po_algorithm: POWeightAlgorithm) -> ECFromPO:
    """Functional spelling of :class:`ECFromPO`."""
    return ECFromPO(po_algorithm)
