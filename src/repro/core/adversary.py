"""The unfold-and-mix adversary: Step 1 of the lower bound (paper, Section 4).

Given *any* algorithm ``A`` claiming to compute maximal fractional matchings
in the EC model, the adversary inductively constructs pairs of loopy
EC-graphs ``(G_i, H_i)``, ``i = 0 .. Delta-2``, with witness nodes whose
radius-``i`` views are isomorphic although ``A``'s outputs differ on a
common loop colour (property (P1)).  Reaching ``i = Delta - 2`` proves
``A``'s run-time exceeds ``Delta - 2``: no ``o(Delta)``-round EC-algorithm
exists.

The construction (Figures 5-7):

* **base case** — ``G_0`` is a single node with ``Delta`` coloured loops;
  removing a positive-weight loop yields ``H_0``, and saturation forces some
  surviving loop's weight to change;
* **inductive step** — *mix* ``G - e`` with ``H - f`` into ``GH``.  The
  fresh mixing edge's weight differs from the old weight of ``e`` or of
  ``f``, since those differ.  Because ``A`` is lift-invariant it keeps the
  old weights on the 2-lift ``GG`` (or ``HH``), so the next pair is
  ``(GG, GH)`` or ``(HH, GH)``: only the side that lost its weight is
  *unfolded*.  The *propagation principle* then walks that disagreement
  through the shared tree until it rests on a loop — the next witness.

Everything the paper claims is re-checked mechanically on every step:
ball isomorphism ((P1), via radius-cut canonical forms), loop budgets
((P2)), tree shape ((P3)) — all three on the graphs' columns —
feasibility/maximality/saturation of every output (Lemma 2), and —
optionally — lift invariance of ``A`` itself on both parents' 2-lifts.

``GH`` differs from ``G`` and ``H`` only across the joining edge, so for a
simulated algorithm (:class:`~repro.local.algorithm.SimulatedECWeights`)
each run keeps its record beside its outputs, and the run on ``GH``
replays its parents' records, simulating only the nodes whose inbox
changed (:func:`repro.local.runtime.replay`).  Lemma 2 is still checked on
every output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Hashable, Mapping, Optional, Tuple

from ..graphs.families import single_node_with_loops
from ..graphs.isomorphism import canonical_form_of
from ..graphs.lifts import mix, unfold_loop
from ..graphs.multigraph import ECGraph
from ..graphs.soa import is_tree_ignoring_loops_fast, min_direct_loops_fast
from ..local.algorithm import ECWeightAlgorithm, SimulatedECWeights
from ..local.runtime import RunRecord
from ..matching.fm import InconsistentOutputError, fm_from_node_outputs
from ..obs.tracer import current_tracer
from .propagation import disagreement_walk
from .saturation import unsaturated_nodes
from .witness import AlgorithmFailure, LowerBoundWitness, StepWitness

Node = Hashable
Color = Hashable
NodeOutputs = Dict[Node, Dict[Color, Fraction]]

__all__ = ["run_adversary", "checked_run", "hard_instance_pair"]


def checked_run(
    algorithm: ECWeightAlgorithm,
    g: ECGraph,
    require_saturation: bool = True,
    tracer=None,
    delta: Optional[int] = None,
    level: Optional[int] = None,
    run: Optional[Callable[[ECGraph], NodeOutputs]] = None,
) -> NodeOutputs:
    """Run ``algorithm`` on ``g`` and verify its output is a maximal FM.

    Raises :class:`AlgorithmFailure` with a certificate if the output is
    inconsistent, infeasible, non-maximal, or (when ``require_saturation``,
    for loopy inputs) leaves a node unsaturated.  The run builds one
    :class:`~repro.matching.fm.FractionalMatching`, which sums every load
    once; all three Lemma-2 verdicts read that one vector.  No Figure 4
    lift is attached: a node with a loop that is unsaturated already fails
    maximality, so an unsaturated node that gets this far has no loop to
    unfold (:func:`~repro.core.saturation.figure4_certificate`).

    ``run`` (``g -> outputs``), when given, computes the outputs in place
    of ``algorithm.run_on``: the construction passes one that keeps the
    run's record or replays it.

    Emits one ``adversary.checked_run`` span (graph size, Lemma-2 verdict)
    on the given or ambient tracer.  When the run happens inside a
    construction, ``delta`` and ``level`` stamp the span with the
    originating ``(algorithm, delta, level)`` triple, so a verdict pulled
    out of a merged parallel sweep trace is attributable without its
    positional context (which step of which ladder in which worker).
    """
    tracer = tracer if tracer is not None else current_tracer()
    attribution = {}
    if delta is not None:
        attribution["delta"] = delta
    if level is not None:
        attribution["level"] = level
    with tracer.span(
        "adversary.checked_run",
        algorithm=algorithm.name,
        nodes=g.num_nodes(),
        edges=g.num_edges(),
        **attribution,
    ) as span:
        try:
            outputs = (algorithm.run_on if run is None else run)(g)
        except Exception as exc:  # surface simulator/adapter errors with context
            span.set(verdict="crashed")
            raise AlgorithmFailure(f"{algorithm.name} crashed on {g!r}: {exc}", graph=g) from exc
        try:
            fm = fm_from_node_outputs(g, outputs)
        except InconsistentOutputError as exc:
            span.set(verdict="inconsistent")
            raise AlgorithmFailure(
                f"{algorithm.name} produced inconsistent endpoint outputs: {exc}", graph=g
            ) from exc
        problems = fm.feasibility_violations()
        if problems:
            span.set(verdict="infeasible")
            raise AlgorithmFailure(
                f"{algorithm.name} produced an infeasible FM: {problems[0]}", graph=g
            )
        missing = fm.maximality_violations()
        if missing:
            span.set(verdict="non-maximal")
            raise AlgorithmFailure(
                f"{algorithm.name} produced a non-maximal FM (edge {missing[0]} uncovered)",
                graph=g,
                detail=missing,
            )
        if require_saturation:
            bad = unsaturated_nodes(fm)
            if bad:
                span.set(verdict="unsaturated")
                raise AlgorithmFailure(
                    f"{algorithm.name} left node {bad[0]!r} unsaturated; Lemma 2 requires "
                    "a maximal FM on a loopy graph to saturate every node",
                    graph=g,
                )
        span.set(verdict="ok")
        tracer.metrics.counter("adversary.checked_runs", algorithm=algorithm.name).inc()
    return outputs


def _kept_run(
    algorithm, g: ECGraph, keep: bool, mixed_from=None, **where
) -> Tuple[NodeOutputs, Optional[RunRecord]]:
    """``checked_run`` on ``g``, returning its outputs and the run's record.

    With ``keep`` false the run is ``algorithm.run_on`` and the record
    ``None``.  Otherwise ``algorithm`` is a ``SimulatedECWeights`` and the
    run keeps its record; a mix (``mixed_from`` is ``(joining edge id,
    G's (record, outputs), H's (record, outputs))``) is replayed from its
    parents' records where that is exact.
    """
    record = None

    def run(graph):
        nonlocal record
        outputs, record = (
            algorithm.replay_on(graph, *mixed_from) if mixed_from else algorithm.record_on(graph)
        )
        return outputs

    return checked_run(algorithm, g, run=run if keep else None, **where), record


def _lifted_outputs(base_outputs: NodeOutputs, lifted: ECGraph) -> NodeOutputs:
    """Outputs on a 2-lift implied by lift invariance: the base node's.

    Both copies of a node share its output dict; nothing writes an output
    map.
    """
    return {(side, v): base_outputs[v] for (side, v) in lifted.nodes()}


def _first_disagreeing_color(
    out1: Mapping[Color, Fraction], out2: Mapping[Color, Fraction]
) -> Optional[Color]:
    common = set(out1.keys()) & set(out2.keys())
    for c in sorted(common, key=repr):
        if Fraction(out1[c]) != Fraction(out2[c]):
            return c
    return None


def run_adversary(
    algorithm: ECWeightAlgorithm,
    delta: int,
    deep_verify: bool = False,
    tracer=None,
) -> LowerBoundWitness:
    """Execute the full Section 4 construction against ``algorithm``.

    Parameters
    ----------
    algorithm:
        Any EC-model maximal-FM algorithm (lift-invariant by contract).
    delta:
        The maximum degree; the construction reaches witness depth
        ``delta - 2`` and every graph built has maximum degree ``delta``.
    deep_verify:
        At every inductive step, unfold both parents, re-run the algorithm
        on each 2-lift and check its outputs agree with the lift-invariance
        prediction (two extra runs per step; catches non-anonymous
        algorithms red-handed).  Every run is then a full run: no mix is
        replayed from its parents' records, so a deep-verified
        construction cross-checks the replays of the default one.
    tracer:
        A :class:`repro.obs.Tracer`; defaults to the ambient tracer (no-op
        unless installed).  Emits one ``adversary.run`` span containing one
        ``adversary.step`` span per induction step (the base case is step
        0) with ``adversary.mix`` / ``adversary.unfold`` (one, of the side
        the walk keeps; under ``deep_verify`` two, G then H) /
        ``adversary.walk`` / ``adversary.iso_check`` sub-spans, graph
        node/edge counts and certificate verdicts — the measurable form of
        the construction's Delta-linear cost profile.

    Returns
    -------
    LowerBoundWitness
        Machine-verified witnesses for every ``i = 0 .. delta - 2``.

    Raises
    ------
    AlgorithmFailure
        If the algorithm is not a correct maximal-FM EC-algorithm; the
        exception carries the certificate.
    """
    if delta < 2:
        raise ValueError("the construction needs delta >= 2")
    tracer = tracer if tracer is not None else current_tracer()
    witness = LowerBoundWitness(algorithm=algorithm.name, delta=delta)
    # each run's record travels beside its outputs; none outlives this call
    keep = isinstance(algorithm, SimulatedECWeights) and not deep_verify

    with tracer.span("adversary.run", algorithm=algorithm.name, delta=delta) as adv_span:
        # --------------------------------------------------------------
        # base case (Section 4.2, Figure 5)
        # --------------------------------------------------------------
        with tracer.span("adversary.step", index=0, side="base") as base_span:
            graph_g = single_node_with_loops(delta, node="r")
            out_g, rec_g = _kept_run(algorithm, graph_g, keep, tracer=tracer, delta=delta, level=0)
            node_g = "r"
            positive = [
                e for e in graph_g.loops_at(node_g) if Fraction(out_g[node_g][e.color]) > 0
            ]
            if not positive:
                raise AlgorithmFailure(
                    f"{algorithm.name} saturated a node with all-zero loop weights",
                    graph=graph_g,
                )
            removed = positive[0]
            graph_h = graph_g.fork()
            graph_h.remove_edge(removed.eid)
            out_h, rec_h = _kept_run(algorithm, graph_h, keep, tracer=tracer, delta=delta, level=0)
            node_h = node_g
            color = _first_disagreeing_color(
                {c: w for c, w in out_g[node_g].items() if c != removed.color},
                out_h[node_h],
            )
            if color is None:
                raise AlgorithmFailure(
                    f"{algorithm.name} announced identical weights on G0 - e and H0, "
                    f"contradicting saturation",
                    graph=graph_h,
                )
            witness.steps.append(
                _make_step(
                    0, graph_g, graph_h, node_g, node_h, color,
                    Fraction(out_g[node_g][color]), Fraction(out_h[node_h][color]),
                    delta, side="base", tracer=tracer,
                )
            )
            base_span.set(nodes_g=graph_g.num_nodes(), nodes_h=graph_h.num_nodes())

        # --------------------------------------------------------------
        # inductive steps (Section 4.3, Figures 6-7)
        # --------------------------------------------------------------
        for i in range(delta - 2):
            with tracer.span("adversary.step", index=i + 1) as step_span:
                e = graph_g.edge_at(node_g, color)
                f = graph_h.edge_at(node_h, color)
                assert e is not None and e.is_loop, "witness colour must be a loop in G"
                assert f is not None and f.is_loop, "witness colour must be a loop in H"

                with tracer.span(
                    "adversary.mix",
                    nodes_g=graph_g.num_nodes(),
                    nodes_h=graph_h.num_nodes(),
                ):
                    gh, join = mix(graph_g, e.eid, graph_h, f.eid)
                out_gh, rec_gh = _kept_run(
                    algorithm, gh, keep, (join, (rec_g, out_g), (rec_h, out_h)),
                    tracer=tracer, delta=delta, level=i + 1,
                )

                w_e = Fraction(out_g[node_g][color])
                w_f = Fraction(out_h[node_h][color])
                w_mix = Fraction(out_gh[(0, node_g)][color])
                assert w_e != w_f, "induction invariant: the loop weights differ"

                # the mixing edge lost e's weight: the pair is (GG, GH) and the
                # walk runs through G; otherwise it lost f's: (HH, GH) through H
                side = "G" if w_mix != w_e else "H"
                parents = {
                    "G": (0, graph_g, e, out_g, node_g, rec_g),
                    "H": (1, graph_h, f, out_h, node_h, rec_h),
                }
                lifts = {}
                for lifted in ("G", "H") if deep_verify else (side,):
                    _, parent, loop, outputs, _, _ = parents[lifted]
                    with tracer.span("adversary.unfold", side=lifted, nodes=parent.num_nodes()):
                        lift, _, _ = unfold_loop(parent, loop.eid)
                    predicted = _lifted_outputs(outputs, lift)
                    if deep_verify and checked_run(
                        algorithm, lift, tracer=tracer, delta=delta, level=i + 1
                    ) != predicted:
                        raise AlgorithmFailure(
                            f"{algorithm.name} is not lift-invariant: its outputs on the "
                            f"unfolded 2-lift of {lifted} differ from {lifted}'s",
                            graph=lift,
                        )
                    lifts[lifted] = lift, predicted

                tag, walk_graph, _, walk_outputs, start, walk_record = parents[side]
                with tracer.span(
                    "adversary.walk", side=side, nodes=walk_graph.num_nodes()
                ) as walk_span:
                    g_star, loop_color, trail = disagreement_walk(
                        walk_graph,
                        walk_outputs,
                        {v: out_gh[(tag, v)] for v in walk_graph.nodes()},
                        start,
                        color,
                    )
                    walk_span.set(trail_length=len(trail))

                graph_g, out_g = lifts[side]
                if keep:
                    rec_g = algorithm.lifted_record(graph_g, walk_record)
                graph_h, out_h, rec_h = gh, out_gh, rec_gh
                node_g = (0, g_star)
                node_h = (tag, g_star)
                color = loop_color

                witness.steps.append(
                    _make_step(
                        i + 1, graph_g, graph_h, node_g, node_h, color,
                        Fraction(out_g[node_g][color]), Fraction(out_h[node_h][color]),
                        delta, side=side, tracer=tracer,
                    )
                )
                step_span.set(
                    side=side,
                    nodes_g=graph_g.num_nodes(),
                    edges_g=graph_g.num_edges(),
                    nodes_h=graph_h.num_nodes(),
                    edges_h=graph_h.num_edges(),
                )
                tracer.metrics.counter(
                    "adversary.steps", algorithm=algorithm.name, delta=delta
                ).inc()
        adv_span.set(achieved_depth=witness.achieved_depth)
    return witness


def hard_instance_pair(
    delta: int,
    algorithm: Optional[ECWeightAlgorithm] = None,
) -> Tuple[ECGraph, ECGraph, Node, Node, Color]:
    """The construction's final hard pair ``(G_{Delta-2}, H_{Delta-2})``.

    A convenience export of the Section 4 instances for downstream use
    (stress inputs, teaching, further experiments): two loopy EC-graphs of
    maximum degree ``delta`` whose radius-``(delta-2)`` views at the
    returned witness nodes are isomorphic, yet on which the given algorithm
    (greedy-by-colour when omitted) announces different weights for the
    returned loop colour.

    Returns ``(G, H, g, h, colour)``.
    """
    if algorithm is None:
        from ..matching.greedy_color import greedy_color_algorithm

        algorithm = greedy_color_algorithm()
    witness = run_adversary(algorithm, delta)
    top = witness.steps[-1]
    return top.graph_g, top.graph_h, top.node_g, top.node_h, top.color


def _make_step(
    index: int,
    graph_g: ECGraph,
    graph_h: ECGraph,
    node_g: Node,
    node_h: Node,
    color: Color,
    weight_g: Fraction,
    weight_h: Fraction,
    delta: int,
    side: str,
    tracer=None,
) -> StepWitness:
    """Assemble a step witness, performing the (P1)-(P3) machine checks.

    All three read the graphs' columnar snapshots (:mod:`repro.graphs.soa`):
    (P3) counts non-loop edges and runs one integer search, (P2) counts
    each node's loops, and (P1) compares the witness nodes' radius-``index``
    forms, walked on the whole graphs and cut at that depth, so no ball is
    extracted.  The form walk needs a tree, so (P1) is only checked once
    (P3) holds: a broken (P3) raises the invariant's ``AssertionError``,
    never the walk's cycle ``ValueError``.
    """
    tracer = tracer if tracer is not None else current_tracer()
    trees = is_tree_ignoring_loops_fast(graph_g) and is_tree_ignoring_loops_fast(graph_h)
    with tracer.span(
        "adversary.iso_check", radius=index, nodes=graph_g.num_nodes()
    ) as iso_span:
        iso = trees and canonical_form_of(graph_g, node_g, index) == canonical_form_of(
            graph_h, node_h, index
        )
        iso_span.set(isomorphic=iso)
    budget = min(min_direct_loops_fast(graph_g), min_direct_loops_fast(graph_h))
    step = StepWitness(
        index=index,
        graph_g=graph_g,
        graph_h=graph_h,
        node_g=node_g,
        node_h=node_h,
        color=color,
        weight_g=weight_g,
        weight_h=weight_h,
        balls_isomorphic=iso,
        loop_budget=budget,
        trees=trees,
        side=side,
    )
    if not step.valid:
        raise AssertionError(
            f"construction invariant broken at step {index}: "
            f"iso={iso}, trees={trees}, weights=({weight_g}, {weight_h})"
        )
    if budget < delta - 1 - index:
        raise AssertionError(
            f"loop budget {budget} below Delta-1-i = {delta - 1 - index} at step {index}"
        )
    return step
