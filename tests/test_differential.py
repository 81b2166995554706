"""Differential test: the production graph paths against their oracles.

Production computes canonical forms with ``repro.graphs.soa.canonical_form_fast``
(through ``canonical_form_of`` and the engine's ``CanonicalFormCache``).
Here it runs beside the object-walking oracle, ``canonical_rooted_form``,
on whole graphs and on their balls (``ball``, built edge by edge), over
generated inputs: the graph families, random 2-lifts, truncated universal
covers, every G/H graph the greedy and proposal adversaries build up to
Delta = 7, and one family whose distinct colours share a ``repr``.  Each
comparison checks one production result against its oracle; a cyclic
input agrees when both sides raise the same ``ValueError``.

The adversary's column paths are checked the same way (:class:`TestColumnPaths`):
the radius-cut forms of its (P1) check, the snapshots its lifts derive, and
its (P2)/(P3) verdicts, at every step it checks.
"""

from __future__ import annotations

import functools
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import adversary
from repro.core.adversary import run_adversary
from repro.core.theorem import chain_from_name
from repro.core.witness import AlgorithmFailure
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
from repro.graphs.loopy import min_direct_loops
from repro.graphs.memo import reset_memos
from repro.graphs.multigraph import ECGraph
from repro.graphs.neighborhoods import ball
from repro.graphs.soa import (
    SoASnapshot,
    _build,
    canonical_form_fast,
    is_tree_ignoring_loops_fast,
    min_direct_loops_fast,
)
from repro.matching import greedy_color_algorithm, proposal_algorithm

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


def shaded(g: ECGraph, flip: int = 0) -> ECGraph:
    """``g`` with every colour ``c`` replaced by ``Shade(c ^ flip)``.

    ``Shade(c ^ 1)`` prints exactly like ``Shade(c)``, so ``shaded(g, 1)``
    is a proper twin of ``shaded(g)`` that differs only in colours sharing
    a ``repr``.
    """
    out = ECGraph()
    for v in g.nodes():
        out.add_node(v)
    for e in g.edges():
        out.add_edge(e.u, e.v, Shade(e.color ^ flip), eid=e.eid)
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
    # each twin comes after its shaded graph, so the group's one cache has
    # seen a graph that prints alike before it canonicalises the twin
    graphs += [(f"shaded{index}.twin", shaded(base, flip=1)) for index, base in enumerate(bases[:3])]
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
                self.check(
                    f"{where}: ball({t}) form",
                    lambda: canonical_form_of(b.graph, v),
                    lambda: canonical_rooted_form(b.graph, v),
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


# ----------------------------------------------------------------------
# the adversary's column paths
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def construction():
    """Every step the adversary checked and every graph its lifts built:
    greedy and proposal at Δ = 3–9, and the po, oi and id chains at
    Δ = 2–4, refuted runs included up to their refutation."""
    steps, lifts = [], []
    real_step, real_unfold, real_mix = adversary._make_step, adversary.unfold_loop, adversary.mix

    def make_step(index, graph_g, graph_h, node_g, node_h, *args, **kwargs):
        steps.append((index, graph_g, graph_h, node_g, node_h))
        return real_step(index, graph_g, graph_h, node_g, node_h, *args, **kwargs)

    def unfold_loop(*args):
        result = real_unfold(*args)
        lifts.append(result[0])
        return result

    def mix(*args):
        result = real_mix(*args)
        lifts.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(adversary, "_make_step", make_step)
        patch.setattr(adversary, "unfold_loop", unfold_loop)
        patch.setattr(adversary, "mix", mix)
        for algorithm in (greedy_color_algorithm(), proposal_algorithm()):
            for delta in range(3, 10):
                run_adversary(algorithm, delta)
        for chain in ("po", "oi", "id"):
            for delta in (2, 3, 4):
                try:
                    run_adversary(chain_from_name(chain, t=delta), delta)
                except AlgorithmFailure:
                    pass  # the oi and id chains are refuted at Δ = 3
    return steps, lifts


SNAPSHOT_COLUMNS = [name for name in SoASnapshot.__slots__ if name != "_edge_np"]


def snapshot_columns(snap: SoASnapshot) -> dict:
    return {
        name: list(value) if isinstance(value, array) else value
        for name in SNAPSHOT_COLUMNS
        for value in (getattr(snap, name),)
    }


def verdicts(g: ECGraph):
    """(P2)/(P3) on the columns, then by the object oracles."""
    return (
        (min_direct_loops_fast(g), is_tree_ignoring_loops_fast(g)),
        (min_direct_loops(g), g.is_tree_ignoring_loops()),
    )


class TestColumnPaths:
    def test_every_step_and_lift_was_recorded(self, construction):
        steps, lifts = construction
        # 2 x (2 + 3 + ... + 8) steps for Δ = 3–9, the chains' 14 steps,
        # and the base step of each of the two refuted chain runs
        assert len(steps) == 2 * 35 + 14 + 2
        assert len(lifts) > len(steps)

    def test_radius_forms_are_the_reference_balls_forms(self, construction):
        steps, _ = construction
        wrong = []
        for index, graph_g, graph_h, node_g, node_h in steps:
            for g, v in ((graph_g, node_g), (graph_h, node_h)):
                if canonical_form_of(g, v, index) != canonical_rooted_form(
                    ball(g, v, index).graph, v
                ):
                    wrong.append((index, v))
        assert wrong == []

    def test_lifts_carry_their_kernels_own_snapshot(self, construction):
        _, lifts = construction
        for g in lifts:
            derived = g.kernel._soa
            assert isinstance(derived, SoASnapshot)
            assert snapshot_columns(derived) == snapshot_columns(_build(g.kernel))

    def test_column_verdicts_match_the_object_oracles(self, construction):
        steps, lifts = construction
        graphs = lifts + [g for _, graph_g, graph_h, _, _ in steps for g in (graph_g, graph_h)]
        for g in graphs:
            columns, objects = verdicts(g)
            assert columns == objects

    @given(
        st.integers(0, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                              st.integers(1, 4)),
                    max_size=0 if n == 0 else 14,
                ),
            )
        )
    )
    @example((0, []))  # the empty graph
    @example((4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 0, 3)]))  # a cycle
    @example((5, [(0, 1, 1), (1, 2, 2), (3, 4, 1), (4, 4, 2)]))  # a forest
    @example((3, [(0, 1, 1), (1, 2, 2), (2, 2, 1), (0, 0, 2)]))  # a tree with loops
    @settings(max_examples=200, deadline=None)
    def test_column_verdicts_match_on_drawn_graphs(self, drawn):
        n, edges = drawn
        g = ECGraph()
        for v in range(n):
            g.add_node(v)
        for u, v, color in edges:
            if color not in g.incident_colors(u) and color not in g.incident_colors(v):
                g.add_edge(u, v, color)
        columns, objects = verdicts(g)
        assert columns == objects

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_radius_form_raises_exactly_when_the_balls_form_does(self, n):
        g = cycle_graph(n)
        g.add_edge(0, 0, 9)
        for t in range(n + 1):
            got = _outcome(lambda: canonical_form_fast(g, 0, t))
            want = _outcome(lambda: canonical_form_fast(ball(g, 0, t).graph, 0))
            assert got == want, t
        # the ball first holds the whole cycle at radius ceil(n / 2)
        closed = (n + 1) // 2
        assert _outcome(lambda: canonical_form_fast(g, 0, closed - 1))[0] == "value"
        assert _outcome(lambda: canonical_form_fast(g, 0, closed))[0] == "raised"

    def test_radius_below_zero_is_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            canonical_form_fast(path_graph(3), 0, -1)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_a_broken_p3_raises_the_invariant_not_the_walks_error(self, index):
        # a 4-cycle with a loop: from radius 2 its form walk meets the cycle
        g = cycle_graph(4)
        g.add_edge(0, 0, 9)
        with pytest.raises(AssertionError, match="trees=False"):
            adversary._make_step(index, g, g, 0, 0, 9, Fraction(0), Fraction(1), 4, "G")
