"""Locally checkable problems: a uniform facade (paper, Section 2).

The paper frames maximal fractional matching as a *locally checkable*
problem: a constant-time distributed algorithm can verify a proposed
solution.  This module packages the repository's problems behind one
interface so downstream code can verify any solution uniformly — and so
the "locally checkable" claim itself is part of the API, not folklore.

Each problem states its output encoding (what each node announces) and
offers :meth:`LocallyCheckableProblem.violations`, returning human-readable
problems (empty iff the solution is accepted).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, Dict, Hashable, List, Mapping, Set

from .graphs.multigraph import ECGraph
from .matching.fm import InconsistentOutputError, fm_from_node_outputs
from .matching.verify import check_maximal_fm
from .matching.vertex_cover import is_vertex_cover

Node = Hashable

__all__ = [
    "LocallyCheckableProblem",
    "MaximalFractionalMatching",
    "MaximalMatching",
    "TwoApproxVertexCover",
    "PROBLEMS",
]


class LocallyCheckableProblem(ABC):
    """A problem whose solutions a local algorithm can verify.

    ``radius`` is the verification radius: how far the distributed checker
    must look (1 for everything here — each check involves a node and its
    direct neighbours only).
    """

    name: str = "problem"
    radius: int = 1

    @abstractmethod
    def violations(self, g: ECGraph, solution: Any) -> List[str]:
        """Why the solution is invalid (empty list = accepted)."""

    def is_valid(self, g: ECGraph, solution: Any) -> bool:
        """Whether the solution passes all checks."""
        return not self.violations(g, solution)


class MaximalFractionalMatching(LocallyCheckableProblem):
    """Output encoding: per node, a mapping ``{incident colour: weight}``.

    Checks endpoint consistency, then :func:`~repro.matching.verify.check_maximal_fm`:
    feasibility (loads at most 1) and maximality (every edge has a saturated
    endpoint) — Sections 1.2 and 2.
    """

    name = "maximal-fractional-matching"

    def violations(self, g: ECGraph, solution: Mapping[Node, Mapping[Any, Fraction]]) -> List[str]:
        try:
            fm = fm_from_node_outputs(g, solution)
        except InconsistentOutputError as exc:
            return [f"inconsistent outputs: {exc}"]
        return check_maximal_fm(fm)


class MaximalMatching(LocallyCheckableProblem):
    """Output encoding: a set of edge ids.

    Checks that chosen edges are loop-free, pairwise disjoint, and that no
    further edge could be added (Section 1.1's integral problem).
    """

    name = "maximal-matching"

    def violations(self, g: ECGraph, solution: Set[int]) -> List[str]:
        problems: List[str] = []
        matched: Set[Node] = set()
        for eid in sorted(solution):
            if not g.has_edge_id(eid):
                problems.append(f"edge id {eid} does not exist")
                continue
            e = g.edge(eid)
            if e.is_loop:
                problems.append(f"edge {eid} is a loop and cannot be matched")
                continue
            if e.u in matched or e.v in matched:
                problems.append(f"edge {eid} overlaps an earlier matching edge")
                continue
            matched.add(e.u)
            matched.add(e.v)
        for e in g.edges():
            if not e.is_loop and e.u not in matched and e.v not in matched:
                problems.append(f"edge {e.eid} could still be added (not maximal)")
        return problems


class TwoApproxVertexCover(LocallyCheckableProblem):
    """Output encoding: a set of nodes.

    Checks the covering property locally.  (The approximation *ratio* is a
    global quantity and not locally checkable — only the feasibility is;
    the ratio certificates live in :mod:`repro.matching.vertex_cover`.)
    """

    name = "vertex-cover"

    def violations(self, g: ECGraph, solution: Set[Node]) -> List[str]:
        unknown = [v for v in solution if not g.has_node(v)]
        if unknown:
            return [f"unknown nodes in cover: {unknown[:3]}"]
        if is_vertex_cover(g, set(solution)):
            return []
        uncovered = [
            e.eid for e in g.edges() if e.u not in solution and e.v not in solution
        ]
        return [f"edge {eid} uncovered" for eid in uncovered]


#: registry of the repository's locally checkable problems
PROBLEMS: Dict[str, LocallyCheckableProblem] = {
    p.name: p
    for p in (
        MaximalFractionalMatching(),
        MaximalMatching(),
        TwoApproxVertexCover(),
    )
}
