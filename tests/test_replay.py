"""Replaying a mix from its parents' runs (repro.local.runtime.replay).

In the Section 4 construction, ``GH`` differs from ``G`` and ``H`` only
across the joining edge, so ``SimulatedECWeights.replay_on`` simulates only
the nodes whose inbox changed and reads every other node's run from its
parents' records.  These tests hold every replay to a full run of the same
mix: outputs, round count, message total and per-round message counts.
"""

from __future__ import annotations

import pytest

from repro.core.adversary import run_adversary
from repro.graphs.families import random_bounded_degree_graph, single_node_with_loops
from repro.graphs.lifts import mix, unfold_loop
from repro.graphs.multigraph import ECGraph
from repro.local.algorithm import SimulatedECWeights
from repro.local.runtime import ECNetwork, replay, run
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.kuhn_approx import doubling_algorithm
from repro.matching.proposal import ProposalFM, proposal_algorithm
from repro.obs.tracer import Tracer, use_tracer

MAKERS = {
    "greedy": greedy_color_algorithm,
    "proposal": proposal_algorithm,
    "doubling": doubling_algorithm,
}


def full_run(adapter, g):
    """A full run of ``adapter``'s machine on ``g``, as ``run_on`` makes it."""
    network = ECNetwork(g, globals_=adapter.globals_factory(g))
    result = run(network, adapter.algorithm, max_rounds=adapter.max_rounds_factory(g))
    assert result.halted
    return result


def assert_replay_is_exact(adapter, gh, outputs, record):
    """Outputs, rounds, message total and per-round counts equal a full run's."""
    full = full_run(adapter, gh)
    assert outputs == full.outputs
    assert adapter.rounds_used(gh) == full.rounds
    assert adapter.last_message_total == sum(full.message_counts)
    assert [record.count(r) for r in range(full.rounds)] == full.message_counts


class ComparedWithFullRuns(SimulatedECWeights):
    """An adapter that holds each replayed mix to a full run of it."""

    def __init__(self, inner: SimulatedECWeights):
        super().__init__(inner.algorithm, inner.globals_factory, inner.max_rounds_factory, inner.name)
        self.replays = 0
        self.mixes = 0

    def replay_on(self, gh, join_eid, g_side, h_side):
        outputs, record = super().replay_on(gh, join_eid, g_side, h_side)
        assert_replay_is_exact(self, gh, outputs, record)
        self.mixes += 1
        self.replays += record.replayed is not None
        return outputs, record


def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)


def witness_rows(witness):
    return [
        (step.index, step.side, repr(step.color), step.weight_g, step.weight_h,
         step.graph_g.num_nodes(), step.graph_h.num_nodes(), step.node_g, step.node_h)
        for step in witness.steps
    ]


class TestConstruction:
    @pytest.mark.parametrize("delta", range(3, 10))
    @pytest.mark.parametrize("name", ["greedy", "proposal"])
    def test_every_mix_replays_exactly(self, name, delta):
        adapter = ComparedWithFullRuns(MAKERS[name]())
        run_adversary(adapter, delta)
        assert adapter.mixes == delta - 2
        # greedy's palette differs at steps 1 and 2 (H0 lacks a colour)
        assert adapter.replays == (max(delta - 4, 0) if name == "greedy" else delta - 2)

    @pytest.mark.parametrize("delta", range(3, 9))
    @pytest.mark.parametrize("name", ["greedy", "proposal"])
    def test_deep_verify_gives_the_same_witness(self, name, delta):
        """``deep_verify`` runs every mix in full, so it cross-checks the replays."""
        replayed = run_adversary(MAKERS[name](), delta)
        full = run_adversary(MAKERS[name](), delta, deep_verify=True)
        assert witness_rows(replayed) == witness_rows(full)

    def test_each_inductive_step_replays_and_runs_nothing(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_adversary(proposal_algorithm(), 6)
        steps = [s for s in tracer.roots[0].children if s.name == "adversary.step"]
        for step in steps:
            checked = [s for s in step.children if s.name == "adversary.checked_run"]
            names = [s.name for c in checked for s in walk(c)]
            if step.attrs["index"] == 0:
                assert [names.count("local.run"), names.count("local.replay")] == [2, 0]
                continue
            assert [names.count("local.run"), names.count("local.replay")] == [0, 1]
            (span,) = [s for c in checked for s in walk(c) if s.name == "local.replay"]
            assert span.attrs["replayed"] >= 1
            assert span.attrs["node_rounds"] >= span.attrs["replayed"]
        counters = {
            row["name"]: row["value"] for row in tracer.metrics.snapshot()["counters"]
        }
        assert counters["local.runs"] == 2
        assert counters["local.replays"] == 4


def loopy_graph(n, seed, hub=0, loops=(3, 5)):
    """A random graph of degree at most 3 on even colours, beside a star of
    ``hub`` leaves, with a loop of each (odd) colour in ``loops`` at every
    node."""
    simple = random_bounded_degree_graph(n, 3, seed)
    g = ECGraph()
    for v in simple.nodes():
        g.add_node(v)
    for e in simple.edges():
        g.add_edge(e.u, e.v, 2 * e.color)
    for leaf in range(n + 1, n + 1 + hub):
        g.add_edge(n, leaf, 2 * leaf)
    for v in g.nodes():
        for c in loops:
            g.add_edge(v, v, c)
    return g


def partner(adapter, g, n, seed, hub):
    """A random ``loopy_graph`` on which ``adapter`` gets ``g``'s globals."""
    for seed in range(seed, seed + 100):
        h = loopy_graph(n, seed, hub)
        if adapter.globals_factory(h) == adapter.globals_factory(g):
            return h
    raise AssertionError("no partner graph")


def loop(g, v, color):
    e = g.edge_at(v, color)
    assert e is not None and e.is_loop
    return e


#: each machine's star: doubling starts every edge at about 1/Delta, so a
#: node doubles for a few rounds only far below Delta
HUBS = {"greedy": 0, "proposal": 0, "doubling": 14}


class TestRandomLoopyGraphs:
    """Mixes of random loopy graphs at a loop of one colour, and a mix of a
    2-lift with a mix, so that records of every kind are read and extended."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("name", sorted(MAKERS))
    def test_mixes_replay_exactly(self, name, seed):
        adapter, hub = MAKERS[name](), HUBS[name]
        g = loopy_graph(6 + seed % 4, seed, hub)
        h = partner(adapter, g, 6 + seed % 3, 100 * (seed + 1), hub)
        out_g, rec_g = adapter.record_on(g)
        out_h, rec_h = adapter.record_on(h)
        x, y = g.nodes()[seed % g.num_nodes()], h.nodes()[-1]
        gh, join = mix(g, loop(g, x, 3).eid, h, loop(h, y, 3).eid)
        out_gh, rec_gh = adapter.replay_on(gh, join, (rec_g, out_g), (rec_h, out_h))
        assert rec_gh.replayed is not None
        assert_replay_is_exact(adapter, gh, out_gh, rec_gh)

        gg, _, _ = unfold_loop(g, loop(g, x, 5).eid)
        rec_gg = adapter.lifted_record(gg, rec_g)
        out_gg = {(side, v): out_g[v] for side, v in gg.nodes()}
        z = h.nodes()[0]
        mixed, join = mix(gg, loop(gg, (1, x), 3).eid, gh, loop(gh, (1, z), 3).eid)
        outputs, record = adapter.replay_on(mixed, join, (rec_gg, out_gg), (rec_gh, out_gh))
        assert record.replayed is not None
        assert_replay_is_exact(adapter, mixed, outputs, record)

    def test_other_globals_run_in_full(self):
        adapter = greedy_color_algorithm()
        g, h = single_node_with_loops(3), single_node_with_loops(2)
        out_g, rec_g = adapter.record_on(g)
        out_h, rec_h = adapter.record_on(h)
        gh, join = mix(g, loop(g, 0, 1).eid, h, loop(h, 0, 1).eid)
        outputs, record = adapter.replay_on(gh, join, (rec_g, out_g), (rec_h, out_h))
        assert record.replayed is None
        assert_replay_is_exact(adapter, gh, outputs, record)

    def test_a_replay_past_max_rounds_is_rerun_in_full(self):
        adapter = proposal_algorithm()
        g, h = loopy_graph(6, 1), loopy_graph(5, 2)
        out_g, rec_g = adapter.record_on(g)
        out_h, rec_h = adapter.record_on(h)
        gh, join = mix(g, loop(g, 0, 3).eid, h, loop(h, 0, 3).eid)
        rounds = full_run(adapter, gh).rounds
        network = ECNetwork(gh)
        with pytest.raises(RuntimeError, match="did not halt within"):
            replay(network, adapter.algorithm, rec_g, rec_h, gh.edge(join), max_rounds=rounds - 1)
        tight = SimulatedECWeights(ProposalFM("EC"), max_rounds_factory=lambda graph: rounds - 1)
        with pytest.raises(RuntimeError, match=f"ProposalFM did not halt within {rounds - 1} rounds"):
            tight.replay_on(gh, join, (rec_g, out_g), (rec_h, out_h))

    def test_a_machine_that_reads_its_node_keeps_no_record(self):
        class Labelled(ProposalFM):
            sanitizer_allow = frozenset({"node"})

        adapter = SimulatedECWeights(Labelled("EC"))
        g = loopy_graph(5, 3)
        outputs, record = adapter.record_on(g)
        assert record is None
        assert outputs == proposal_algorithm().run_on(g)

    def test_a_machine_cannot_change_a_record_through_its_inbox(self):
        class Clears(ProposalFM):
            def receive(self, state, ctx, inbox):
                state = super().receive(state, ctx, inbox)
                inbox.clear()
                return state

        adapter = SimulatedECWeights(Clears("EC"))
        g, h = loopy_graph(6, 4), loopy_graph(6, 5)
        out_g, rec_g = adapter.record_on(g)
        out_h, rec_h = adapter.record_on(h)
        gh, join = mix(g, loop(g, 2, 5).eid, h, loop(h, 3, 5).eid)
        outputs, record = adapter.replay_on(gh, join, (rec_g, out_g), (rec_h, out_h))
        assert record.replayed
        assert_replay_is_exact(adapter, gh, outputs, record)
