"""Brute-force model checking of the lower bound (independent confirmation).

The unfold-and-mix adversary refutes *given* algorithms.  This module
attacks the quantifier directly, for small parameters: a ``t``-time
EC-algorithm is nothing but a function from radius-``t`` views to
per-colour weights (paper, Eq. (1)), so over a finite *weight grid* the
space of all such algorithms is finite and can be searched exhaustively.

:func:`search_view_function` performs a backtracking search for **any**
view function that is simultaneously a valid maximal FM on every graph of
a given universe.  The constraints decompose per view and per view pair:

* feasibility is local to a view (a node's load is a function of its own
  view — sum of its announced weights);
* endpoint consistency couples the two endpoint views of each edge;
* maximality of an edge couples the same pair (one side's load must be 1).

If the search exhausts the space, **no** grid-valued ``t``-round algorithm
is correct on that universe, hence none is correct on all graphs of
maximum degree ``Delta`` — an impossibility proved by enumeration rather
than construction.  With :func:`one_round_universe` (all small
loop-subset graphs) the search shows no 1-round algorithm exists for any
``Delta >= 2``; for ``Delta = 3`` this exactly matches Theorem 1's
``> Delta - 2`` bound.  (A *found* function only means the chosen universe
does not refute radius ``t``; it is not an algorithm for all graphs.)
:func:`zero_round_impossibility` settles the ``t = 0`` case analytically
(a 0-round algorithm is a constant per colour; loopy one-node graphs
already clash), matching the paper's base-case intuition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..graphs.families import single_node_with_loops
from ..graphs.multigraph import ECGraph
from ..local.views import ec_view_tree

Node = Hashable
Color = Hashable
ViewKey = Tuple  # the view tree itself (hashable nested tuples)
WeightMap = Tuple[Tuple[Color, Fraction], ...]  # sorted (colour, weight) pairs

__all__ = [
    "SearchOutcome",
    "search_view_function",
    "half_integral_grid",
    "one_round_universe",
    "zero_round_impossibility",
]

ONE = Fraction(1)


@dataclass
class SearchOutcome:
    """Result of the exhaustive search.

    ``function`` maps each view (that occurs in the universe) to its
    ``{colour: weight}`` output when a valid algorithm exists; ``None``
    means the whole space was exhausted — an impossibility certificate for
    the given grid, radius and universe.  ``nodes_explored`` counts
    backtracking nodes (a measure of the search's work).
    """

    function: Optional[Dict[ViewKey, Dict[Color, Fraction]]]
    nodes_explored: int
    views: int
    candidates_total: int

    @property
    def impossible(self) -> bool:
        """Whether no grid-valued ``t``-round algorithm exists."""
        return self.function is None


def half_integral_grid(denominator: int = 2) -> List[Fraction]:
    """The weight grid ``{0, 1/d, 2/d, ..., 1}``.

    ``denominator = 2`` is the natural choice (a half-integral maximal FM
    always exists), ``6`` covers thirds and halves simultaneously.  A
    denominator below 1 names no grid and raises ``ValueError``.
    """
    if denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {denominator}")
    return [Fraction(k, denominator) for k in range(denominator + 1)]


def _view_slots(view: ViewKey) -> Tuple[Color, ...]:
    """The incident colours visible at the root of a radius->=1 view."""
    return tuple(entry[0] for entry in view)


def search_view_function(
    universe: Sequence[ECGraph],
    t: int,
    grid: Sequence[Fraction],
    max_nodes: int = 2_000_000,
) -> SearchOutcome:
    """Search for a grid-valued ``t``-time EC algorithm valid on ``universe``.

    ``t`` must be at least 1 (a radius-0 view does not even reveal the
    incident colours; see :func:`zero_round_impossibility`).  Raises
    ``RuntimeError`` if the backtracking exceeds ``max_nodes`` — enlarge the
    budget or shrink the universe/grid rather than trusting a partial scan.
    """
    if t < 1:
        raise ValueError("use zero_round_impossibility for t = 0")
    grid = sorted({Fraction(w) for w in grid})
    if not grid:
        # an empty grid admits no algorithm on any universe: its
        # "impossible" verdict would prove nothing
        raise ValueError("the weight grid is empty")
    if any(w < 0 or w > 1 for w in grid):
        raise ValueError("grid weights must lie in [0, 1]")

    # ---- collect views and the constraints among them -------------------
    views_of_graph: List[Dict[Node, ViewKey]] = []
    all_views: List[ViewKey] = []
    seen: Set[ViewKey] = set()
    for g in universe:
        per_node = {v: ec_view_tree(g, v, t) for v in g.nodes()}
        views_of_graph.append(per_node)
        for view in per_node.values():
            if view not in seen:
                seen.add(view)
                all_views.append(view)

    # edge constraints: (view_u, view_v, colour), deduplicated
    constraints: Set[Tuple[ViewKey, ViewKey, Color]] = set()
    for g, per_node in zip(universe, views_of_graph):
        for e in g.edges():
            vu, vv = per_node[e.u], per_node[e.v]
            key = (vu, vv, e.color) if repr(vu) <= repr(vv) else (vv, vu, e.color)
            constraints.add(key)

    # ---- candidate outputs per view (feasibility is local) --------------
    candidates: Dict[ViewKey, List[Dict[Color, Fraction]]] = {}
    for view in all_views:
        slots = _view_slots(view)
        options = []
        for combo in product(grid, repeat=len(slots)):
            if sum(combo, Fraction(0)) <= ONE:
                options.append(dict(zip(slots, combo)))
        candidates[view] = options
    candidates_total = sum(len(c) for c in candidates.values())

    # order views by how constrained they are (most constraints first)
    constraint_count: Dict[ViewKey, int] = {view: 0 for view in all_views}
    for (vu, vv, _) in constraints:
        constraint_count[vu] += 1
        constraint_count[vv] += 1
    order = sorted(all_views, key=lambda v: (-constraint_count[v], repr(v)))
    index = {view: i for i, view in enumerate(order)}

    # group constraints by the later-assigned endpoint for incremental checks
    checks_at: List[List[Tuple[ViewKey, ViewKey, Color]]] = [[] for _ in order]
    for (vu, vv, c) in constraints:
        later = max(index[vu], index[vv])
        checks_at[later].append((vu, vv, c))

    assignment: Dict[ViewKey, Dict[Color, Fraction]] = {}
    loads: Dict[ViewKey, Fraction] = {}
    explored = 0

    def consistent_at(position: int) -> bool:
        for (vu, vv, c) in checks_at[position]:
            wu, wv = assignment[vu], assignment[vv]
            if wu.get(c) != wv.get(c):
                return False
            # maximality of this edge: one endpoint saturated
            if loads[vu] != ONE and loads[vv] != ONE:
                return False
        return True

    def backtrack(position: int) -> bool:
        nonlocal explored
        if position == len(order):
            return True
        view = order[position]
        for option in candidates[view]:
            explored += 1
            if explored > max_nodes:
                raise RuntimeError(
                    f"search budget of {max_nodes} nodes exhausted; result unknown"
                )
            assignment[view] = option
            loads[view] = sum(option.values(), Fraction(0))
            if consistent_at(position) and backtrack(position + 1):
                return True
            del assignment[view]
            del loads[view]
        return False

    found = backtrack(0)
    return SearchOutcome(
        function=dict(assignment) if found else None,
        nodes_explored=explored,
        views=len(order),
        candidates_total=candidates_total,
    )


def one_round_universe(delta: int) -> List[ECGraph]:
    """A universe of degree-``<= delta`` graphs that defeats all 1-round algorithms.

    Contains every one-node graph whose loops form a non-empty subset of
    the colours ``1 .. delta``, and every two-node graph made of a
    colour-``c`` edge plus arbitrary loop subsets avoiding ``c`` at each
    endpoint.  On this universe, endpoint consistency forces a 1-round
    algorithm's weight for an edge to depend on the edge colour alone, and
    the one-node saturation constraints (``sum of w_c over T = 1`` for
    every loop set ``T``) are then mutually contradictory for
    ``delta >= 2`` — so :func:`search_view_function` at ``t = 1`` reports
    impossibility, confirming (and for ``delta = 3`` exactly matching) the
    Theorem 1 bound ``> delta - 2`` by enumeration.
    """
    if delta < 2:
        raise ValueError("need delta >= 2")
    colors = list(range(1, delta + 1))
    universe: List[ECGraph] = []
    # all non-empty loop subsets on a single node
    for mask in range(1, 1 << delta):
        subset = [c for i, c in enumerate(colors) if mask >> i & 1]
        g = ECGraph()
        g.add_node(0)
        for c in subset:
            g.add_edge(0, 0, c)
        universe.append(g)
    # all two-node edge-plus-loops graphs (degrees stay <= delta)
    for c in colors:
        others = [x for x in colors if x != c]
        for mask_u in range(1 << len(others)):
            for mask_v in range(mask_u, 1 << len(others)):  # unordered pairs
                g = ECGraph()
                g.add_edge("u", "v", c)
                for i, x in enumerate(others):
                    if mask_u >> i & 1:
                        g.add_edge("u", "u", x)
                    if mask_v >> i & 1:
                        g.add_edge("v", "v", x)
                universe.append(g)
    return universe


def zero_round_impossibility(delta: int = 2) -> Tuple[ECGraph, ECGraph, str]:
    """The ``t = 0`` impossibility, analytically (the paper's base-case idea).

    A 0-round EC algorithm sees ``tau_0`` — nothing, not even its incident
    colours — so its output is one constant weight ``w_c`` per colour.  On
    the one-node graph with a single colour-1 loop, maximality forces
    ``w_1 = 1``; on the one-node graph with loops of colours 1 and 2,
    feasibility then fails (``w_1 + w_2 >= 1 + 0`` with maximality forcing
    the sum above 1 whenever ``w_2 > 0``, and the sum to exactly 1
    otherwise — contradicting ``w_1 = 1`` unless ``w_2 = 0``, but then the
    first graph already pinned ``w_1``, making the two-loop node's load
    exactly 1 only if ``w_2 = 0`` ... in which case the colour-2 loop *is*
    covered; the genuine clash needs the single-loop graph of colour 2 as
    well, forcing ``w_2 = 1`` and overload).  Returns the two clashing
    graphs and a prose certificate.
    """
    g1 = single_node_with_loops(1, node="a", first_color=1)
    g2 = single_node_with_loops(1, node="b", first_color=2)
    certificate = (
        "a 0-round EC algorithm outputs a constant w_c per colour c; "
        "maximality on the single-loop graphs forces w_1 = 1 and w_2 = 1, "
        "but then the node with loops of colours 1 and 2 has load 2 > 1 — "
        "infeasible"
    )
    return g1, g2, certificate
