"""Differential test: the production graph paths against their oracles.

Production computes canonical forms with ``repro.graphs.soa.canonical_form_fast``
(through ``canonical_form_of`` and the engine's ``CanonicalFormCache``) and
balls with ``repro.graphs.soa.extract_ball`` (through ``ball``).  Here both run
beside the object-walking oracles — ``canonical_rooted_form`` and
``tests.oracles.reference_ball`` — on generated inputs: the graph families,
random 2-lifts, truncated universal covers, every G/H graph the greedy and
proposal adversaries build up to Delta = 7, and one family whose distinct
colours share a ``repr``.  Each comparison checks one production result
against its oracle; a cyclic input agrees when both sides raise the same
``ValueError``.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.core.adversary import run_adversary
from repro.engine import CanonicalFormCache
from repro.graphs.cover import universal_cover_ec
from repro.graphs.families import (
    caterpillar,
    complete_graph,
    cycle_graph,
    path_graph,
    random_bounded_degree_graph,
    random_loopy_tree,
    random_regular_graph,
    single_node_with_loops,
    star_graph,
)
from repro.graphs.isomorphism import (
    canonical_form_of,
    canonical_rooted_form,
    use_canonical_cache,
)
from repro.graphs.lifts import random_two_lift
from repro.graphs.memo import reset_memos
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball
from repro.matching import greedy_color_algorithm, proposal_algorithm
from tests.oracles import reference_ball

RADII = (0, 1, 2, 3)


@functools.total_ordering
class Shade:
    """A colour whose ``repr`` names only its pair: ``Shade(2)`` and
    ``Shade(3)`` are distinct colours that both print ``Shade(1)``."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, Shade) and self.value == other.value

    def __lt__(self, other) -> bool:
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(("Shade", self.value))

    def __repr__(self) -> str:
        return f"Shade({self.value // 2})"


def shaded(g: ECGraph) -> ECGraph:
    """``g`` with every colour ``c`` replaced by ``Shade(c)``."""
    out = ECGraph()
    for v in g.nodes():
        out.add_node(v)
    for e in g.edges():
        out.add_edge(e.u, e.v, Shade(e.color), eid=e.eid)
    return out


# ----------------------------------------------------------------------
# input groups: name -> list of (label, graph)
# ----------------------------------------------------------------------
def family_inputs():
    graphs = [(f"path{n}", path_graph(n)) for n in range(1, 8)]
    graphs += [(f"star{k}", star_graph(k)) for k in range(1, 6)]
    graphs += [(f"loops{k}", single_node_with_loops(k)) for k in range(1, 5)]
    graphs += [("caterpillar3x2", caterpillar(3, 2)), ("caterpillar4x1", caterpillar(4, 1))]
    graphs += [
        (f"loopy_tree{n}x{loops}s{seed}", random_loopy_tree(n, loops, seed=seed))
        for seed, (n, loops) in enumerate([(3, 0), (5, 1), (6, 2), (8, 1), (10, 2), (12, 0)])
    ]
    graphs += [(f"cycle{n}", cycle_graph(n)) for n in range(3, 7)]
    graphs += [("k4", complete_graph(4)), ("regular8x3", random_regular_graph(8, 3, seed=1))]
    graphs += [
        (f"bounded{n}x{d}s{seed}", random_bounded_degree_graph(n, d, seed=seed))
        for seed, (n, d) in enumerate([(8, 3), (10, 3), (12, 4), (14, 4)])
    ]
    return graphs


def two_lift_inputs():
    rng = random.Random(0x2F1F7)
    bases = [single_node_with_loops(3), star_graph(3), cycle_graph(5)]
    bases += [random_loopy_tree(n, 2, seed=seed) for seed, n in enumerate((4, 6, 8))]
    graphs = []
    for index, base in enumerate(bases):
        for draw in range(3):
            lifted, _ = random_two_lift(base, rng)
            graphs.append((f"lift{index}.{draw}", lifted))
    return graphs


def cover_inputs():
    bases = [
        ("loops3", single_node_with_loops(3)),
        ("cycle5", cycle_graph(5)),
        ("k4", complete_graph(4)),
        ("bounded10x3", random_bounded_degree_graph(10, 3, seed=7)),
        ("loopy_tree5", random_loopy_tree(5, 1, seed=3)),
    ]
    return [
        (f"cover({name},{radius})", universal_cover_ec(g, g.nodes()[0], radius).tree)
        for name, g in bases
        for radius in (1, 2, 3)
    ]


def adversary_inputs():
    graphs = []
    for algorithm in (greedy_color_algorithm(), proposal_algorithm()):
        for delta in range(2, 8):
            for step in run_adversary(algorithm, delta).steps:
                for side, g in (("G", step.graph_g), ("H", step.graph_h)):
                    graphs.append((f"{algorithm.name}/d{delta}/{step.index}{side}", g))
    return graphs


def repr_tie_inputs():
    rng = random.Random(0x5AADE)
    bases = [single_node_with_loops(4), star_graph(5), caterpillar(3, 3)]
    bases += [random_loopy_tree(n, 3, seed=seed) for seed, n in enumerate((4, 7, 10))]
    graphs = [(f"shaded{index}", shaded(base)) for index, base in enumerate(bases)]
    graphs += [(f"shaded{index}.lift", random_two_lift(g, rng)[0]) for index, (_, g) in enumerate(graphs)]
    return graphs


GROUPS = {
    "families": family_inputs,
    "two_lifts": two_lift_inputs,
    "covers": cover_inputs,
    "adversary": adversary_inputs,
    "repr_ties": repr_tie_inputs,
}


# ----------------------------------------------------------------------
# the comparison engine
# ----------------------------------------------------------------------
def _outcome(compute):
    try:
        return ("value", compute())
    except ValueError as error:
        return ("raised", str(error))


def _ball_view(sub: ECGraph, distances):
    return (
        sub.nodes(),
        [(e.eid, e.u, e.v, e.color) for e in sub.edges()],
        sub.kernel.digest,
        sub.kernel._next_eid,
        list(distances.items()),
    )


class Differential:
    """Runs production beside the oracles and records every disagreement."""

    def __init__(self) -> None:
        self.comparisons = 0
        self.both_raised = 0
        self.divergences = []
        self.cache = CanonicalFormCache()

    def check(self, what: str, production, oracle) -> None:
        self.comparisons += 1
        got, want = _outcome(production), _outcome(oracle)
        if got != want:
            self.divergences.append(f"{what}: production {got!r}, oracle {want!r}")
        elif got[0] == "raised":
            self.both_raised += 1

    def graph(self, name: str, g: ECGraph) -> None:
        for v in g.nodes():
            where = f"{name} at {v!r}"
            self.check(f"{where}: form", lambda: canonical_form_of(g, v), lambda: canonical_rooted_form(g, v))
            with use_canonical_cache(self.cache):
                self.check(
                    f"{where}: cached form",
                    lambda: canonical_form_of(g, v),
                    lambda: canonical_rooted_form(g, v),
                )
            for t in RADII:
                b = ball(g, v, t)
                ref, ref_distances = reference_ball(g, v, t)
                self.check(
                    f"{where}: ball({t})",
                    lambda: _ball_view(b.graph, b.distances),
                    lambda: _ball_view(ref, ref_distances),
                )
                self.check(
                    f"{where}: ball({t}) form",
                    lambda: canonical_form_of(b.graph, v),
                    lambda: canonical_rooted_form(ref, v),
                )


@pytest.fixture(scope="module")
def report():
    reset_memos()
    results = {}
    for group, inputs in GROUPS.items():
        differential = Differential()
        for name, g in inputs():
            differential.graph(name, g)
        results[group] = differential
    return results


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_production_agrees_with_the_oracles(report, group):
    differential = report[group]
    assert differential.divergences == []
    assert differential.comparisons > 0


def test_at_least_three_thousand_comparisons(report):
    assert sum(d.comparisons for d in report.values()) >= 3000


def test_cyclic_inputs_raise_on_both_sides(report):
    # cycles, K4, random regular and bounded-degree graphs and some lifts
    # have no canonical form: both sides must raise the same ValueError
    assert report["families"].both_raised > 0
    assert report["two_lifts"].both_raised > 0


def test_repr_tie_family_has_tied_colours():
    tied = 0
    for _, g in repr_tie_inputs():
        for v in g.nodes():
            reprs = [repr(e.color) for e in g.incident_edges(v)]
            tied += len(set(reprs)) < len(reprs)
    assert tied > 0
