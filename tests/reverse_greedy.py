"""Reverse-edge greedy: a central maximal-FM algorithm that drives side G.

Every shipped algorithm and chain takes side H at every inductive step of
the Section 4 construction, so the G side of the step would go untested
without an algorithm that takes it.  This one does, at every Δ from 3.

It is *central*: it reads the whole graph and its edge order, so it is
not lift-invariant.  It still returns a maximal fractional matching that
saturates every node with a loop, so every step it drives is valid, and
only ``deep_verify`` refutes it.
"""

from __future__ import annotations

from fractions import Fraction

from repro.local.algorithm import ECWeightAlgorithm


class ReverseEdgeGreedy(ECWeightAlgorithm):
    """Give each edge, last edge first, all the residual both ends have.

    Every node starts with residual 1 and every incident colour with
    weight 0.  An edge takes ``min`` of its ends' residuals as its weight
    at both ends, and that weight is subtracted once from each distinct
    end; a loop so spends its node's whole residual.
    """

    name = "reverse-edge-greedy"

    def run_on(self, g):
        residual = {v: Fraction(1) for v in g.nodes()}
        out = {v: {c: Fraction(0) for c in g.incident_colors(v)} for v in g.nodes()}
        for e in reversed(g.edges()):
            w = min(residual[e.u], residual[e.v])
            out[e.u][e.color] = out[e.v][e.color] = w
            for end in {e.u, e.v}:
                residual[end] -= w
        return out
