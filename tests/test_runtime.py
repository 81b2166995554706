"""Tests for the LOCAL runtime and network adapters (repro.local.runtime)."""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx
import pytest

from repro.graphs.families import cycle_graph, single_node_with_loops, star_graph
from repro.graphs.ports import po_double_from_ec
from repro.local.algorithm import DistributedAlgorithm
from repro.local.context import NodeContext
from repro.local.runtime import ECNetwork, IDNetwork, PONetwork, run, run_rounds


class EchoOnce(DistributedAlgorithm):
    """Sends its port list on every port; halts after one round with the inbox."""

    def __init__(self, model: str = "EC"):
        self.model = model

    def initial_state(self, ctx: NodeContext):
        return None

    def send(self, state, ctx: NodeContext):
        if state is not None:
            return {}
        return {p: ("hello", tuple(ctx.ports)) for p in ctx.ports}

    def receive(self, state, ctx: NodeContext, inbox):
        return dict(inbox) if state is None else state

    def output(self, state, ctx: NodeContext):
        return state


class NeverHalts(DistributedAlgorithm):
    model = "EC"

    def initial_state(self, ctx):
        return 0

    def send(self, state, ctx):
        return {}

    def receive(self, state, ctx, inbox):
        return state + 1

    def output(self, state, ctx):
        return None


class CountsRounds(DistributedAlgorithm):
    """Halts after a fixed number of rounds, outputting the count."""

    def __init__(self, rounds: int, model: str = "EC"):
        self.rounds = rounds
        self.model = model

    def initial_state(self, ctx):
        return 0

    def send(self, state, ctx):
        return {p: state for p in ctx.ports}

    def receive(self, state, ctx, inbox):
        return state + 1

    def output(self, state, ctx):
        return state if state >= self.rounds else None

    def snapshot(self, state, ctx):
        return ("partial", state)


class TestECNetwork:
    def test_messages_cross_edges(self):
        g = star_graph(2)
        result = run(ECNetwork(g), EchoOnce())
        # leaf 1 (port colour 1) hears from the centre
        assert result.outputs[1][1][0] == "hello"
        assert result.rounds == 1

    def test_loop_echo(self):
        """A message sent on a loop port returns to the sender on that port:
        the neighbour across a loop is a copy of oneself (Figure 4)."""
        g = single_node_with_loops(2)
        result = run(ECNetwork(g), EchoOnce())
        inbox = result.outputs[0]
        assert set(inbox.keys()) == {1, 2}
        assert inbox[1] == ("hello", (1, 2))

    def test_unknown_port_rejected(self):
        class BadSender(EchoOnce):
            def send(self, state, ctx):
                return {99: "boom"} if state is None else {}

        with pytest.raises(KeyError):
            run(ECNetwork(star_graph(2)), BadSender())


class TestPONetwork:
    def test_out_reaches_in(self):
        d = po_double_from_ec(star_graph(1))
        result = run(PONetwork(d), EchoOnce("PO"))
        # node 0 has an out-arc colour 1 to node 1 and an in-arc from it
        inbox0 = result.outputs[0]
        assert ("in", 1) in inbox0 and ("out", 1) in inbox0

    def test_directed_loop_wires_out_to_in(self):
        d = po_double_from_ec(single_node_with_loops(1))
        result = run(PONetwork(d), EchoOnce("PO"))
        inbox = result.outputs[0]
        assert set(inbox.keys()) == {("out", 1), ("in", 1)}


class TestIDNetwork:
    def test_ports_are_neighbor_ids(self):
        g = nx.path_graph(3)
        result = run(IDNetwork(g), EchoOnce("ID"))
        assert set(result.outputs[1].keys()) == {0, 2}

    def test_self_loops_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 0)
        with pytest.raises(ValueError):
            IDNetwork(g)

    def test_identifier_exposed(self):
        g = nx.path_graph(2)
        net = IDNetwork(g)
        assert net.context(1).identifier == 1


class TestRun:
    def test_model_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run(ECNetwork(star_graph(1)), EchoOnce("PO"))

    def test_zero_round_algorithm(self):
        class Immediate(EchoOnce):
            def output(self, state, ctx):
                return "done"

        result = run(ECNetwork(star_graph(2)), Immediate())
        assert result.rounds == 0 and result.halted

    def test_max_rounds_cap(self):
        result = run(ECNetwork(star_graph(2)), NeverHalts(), max_rounds=5)
        assert not result.halted
        assert result.rounds == 5

    def test_round_count_is_exact(self):
        result = run(ECNetwork(cycle_graph(4)), CountsRounds(3))
        assert result.rounds == 3
        assert all(v == 3 for v in result.outputs.values())

    def test_message_counts_recorded(self):
        result = run(ECNetwork(cycle_graph(4)), CountsRounds(2))
        assert result.message_counts[0] == 8  # 4 nodes x 2 ports


class TestRunRounds:
    def test_snapshot_used_for_unfinished_nodes(self):
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(10), rounds=3)
        assert result.rounds == 3
        assert all(v == ("partial", 3) for v in result.outputs.values())
        assert result.halted is False  # a snapshot is not an announced output

    def test_stops_early_when_all_halt(self):
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(2), rounds=10)
        assert result.rounds == 2
        assert all(v == 2 for v in result.outputs.values())
        assert result.halted is True

    def test_zero_rounds(self):
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(5), rounds=0)
        assert result.rounds == 0
        assert all(v == ("partial", 0) for v in result.outputs.values())

    def test_message_counts_recorded_like_run(self):
        """``run_rounds`` records per-round message counts just as ``run`` does."""
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(2), rounds=10)
        assert result.message_counts == [8, 8]  # 4 nodes x 2 ports, both rounds

    def test_message_counts_respect_the_budget(self):
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(10), rounds=3)
        assert len(result.message_counts) == 3
        assert all(c == 8 for c in result.message_counts)

    def test_message_counts_empty_for_zero_rounds(self):
        result = run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(5), rounds=0)
        assert result.message_counts == []


@pytest.mark.parametrize("budget", [-1, -3])
@pytest.mark.parametrize(
    "execute, option",
    [
        (lambda network, alg, budget: run(network, alg, max_rounds=budget), "max_rounds"),
        (lambda network, alg, budget: run_rounds(network, alg, rounds=budget), "rounds"),
    ],
    ids=["run", "run_rounds"],
)
def test_negative_round_budget_rejected(execute, option, budget):
    with pytest.raises(ValueError, match=rf"^{option} must be non-negative, got {budget}$"):
        execute(ECNetwork(cycle_graph(4)), CountsRounds(2), budget)


class TestOneLoopTwoEntryPoints:
    """``run`` and ``run_rounds`` agree on every budget; only the outputs of
    nodes still running differ (``None`` against a snapshot)."""

    HALTS_AFTER = 3

    NETWORKS = {
        "EC": lambda: ECNetwork(star_graph(3)),
        "PO": lambda: PONetwork(po_double_from_ec(cycle_graph(3))),
        "ID": lambda: IDNetwork(nx.path_graph(4)),
    }

    @pytest.mark.parametrize("model", sorted(NETWORKS))
    @pytest.mark.parametrize("budget", range(HALTS_AFTER + 2))
    def test_results_agree(self, model, budget):
        algorithm = CountsRounds(self.HALTS_AFTER, model)
        polled = run(self.NETWORKS[model](), algorithm, max_rounds=budget)
        bounded = run_rounds(self.NETWORKS[model](), algorithm, rounds=budget)
        assert polled.rounds == bounded.rounds == min(budget, self.HALTS_AFTER)
        assert polled.message_counts == bounded.message_counts
        assert polled.states == bounded.states
        assert polled.halted is bounded.halted is (budget >= self.HALTS_AFTER)
        snapshot = ("partial", bounded.rounds)
        assert {v: snapshot if o is None else o for v, o in polled.outputs.items()} == bounded.outputs

    @pytest.mark.parametrize("model", sorted(NETWORKS))
    @pytest.mark.parametrize("budget", range(HALTS_AFTER + 2))
    def test_round_spans_agree(self, model, budget):
        """Both number their rounds alike; only ``run`` polls, once before
        the first round and once after each."""
        from repro.obs import Tracer

        for execute, polls_per_round in (
            (lambda network, alg, tracer: run(network, alg, max_rounds=budget, tracer=tracer), 1),
            (lambda network, alg, tracer: run_rounds(network, alg, rounds=budget, tracer=tracer), 0),
        ):
            tracer = Tracer()
            result = execute(self.NETWORKS[model](), CountsRounds(self.HALTS_AFTER, model), tracer)
            assert [s.attrs for s in tracer.find("local.round")] == [
                {"round": i, "messages": count} for i, count in enumerate(result.message_counts)
            ]
            assert len(tracer.find("local.poll")) == polls_per_round * (result.rounds + 1)


class TestTracing:
    """Optional observability: the runtime reports spans when given a tracer."""

    def test_run_span_attrs(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = run(ECNetwork(cycle_graph(4)), CountsRounds(2), tracer=tracer)
        (span,) = tracer.find("local.run")
        assert span.attrs["model"] == "EC"
        assert span.attrs["nodes"] == 4
        assert span.attrs["rounds"] == result.rounds
        assert span.attrs["halted"] is True
        assert span.attrs["messages"] == sum(result.message_counts)

    def test_run_rounds_span_reports_budget(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run_rounds(ECNetwork(cycle_graph(4)), CountsRounds(10), rounds=3, tracer=tracer)
        (span,) = tracer.find("local.run_rounds")
        assert span.attrs["budget"] == 3
        assert span.attrs["rounds"] == 3
        assert span.attrs["halted"] is False
        assert len(tracer.find("local.round")) == 3

    def test_round_spans_carry_round_and_message_count(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run(ECNetwork(cycle_graph(4)), CountsRounds(2), tracer=tracer)
        rounds = tracer.find("local.round")
        assert [s.attrs["round"] for s in rounds] == [0, 1]
        assert all(s.attrs["messages"] == 8 for s in rounds)

    def test_metrics_counters_accumulate(self):
        from repro.obs import Tracer

        tracer = Tracer()
        run(ECNetwork(cycle_graph(4)), CountsRounds(2), tracer=tracer)
        counters = {c["name"]: c["value"] for c in tracer.metrics.snapshot()["counters"]}
        assert counters["local.runs"] == 1
        assert counters["local.rounds"] == 2
        assert counters["local.messages"] == 16

    def test_disabled_tracer_changes_nothing(self):
        """The default (no tracer) path returns identical results."""
        plain = run(ECNetwork(cycle_graph(4)), CountsRounds(3))
        from repro.obs import Tracer

        traced = run(ECNetwork(cycle_graph(4)), CountsRounds(3), tracer=Tracer())
        assert plain.outputs == traced.outputs
        assert plain.rounds == traced.rounds
        assert plain.message_counts == traced.message_counts


class TestKeywordOnlyOptions:
    """run()/run_rounds() options are keyword-only — the PR 3 shims are gone."""

    def _network(self):
        return ECNetwork(cycle_graph(4))

    def test_run_positional_options_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            run(self._network(), CountsRounds(2), 50)  # positional max_rounds
        with pytest.raises(TypeError, match="positional"):
            run(self._network(), CountsRounds(2), 50, False, "raise")

    def test_run_rounds_positional_options_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            run_rounds(self._network(), CountsRounds(10), 3, False)

    def test_keyword_only_calls_work_without_warnings(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(
                self._network(), CountsRounds(3), max_rounds=50,
                sanitize=False, sanitize_mode="raise",
            )
            bounded = run_rounds(
                self._network(), CountsRounds(10), 3,
                sanitize=False, sanitize_mode="raise",
            )
        assert result.halted
        assert bounded.rounds <= 3
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]


class TestLightCone:
    """``run_rounds(..., root=r)`` runs only what ``r`` can see in time."""

    def path(self):
        return IDNetwork(nx.path_graph(7))

    def test_outputs_and_states_hold_the_root_alone(self):
        result = run_rounds(self.path(), CountsRounds(10, "ID"), rounds=3, root=3)
        assert result.outputs == {3: ("partial", 3)}
        assert result.states == {3: 3}
        assert result.rounds == 3
        assert result.halted is False  # a snapshot is not an announced output

    def test_stops_when_the_root_announces(self):
        result = run_rounds(self.path(), CountsRounds(2, "ID"), rounds=10, root=0)
        assert result.outputs == {0: 2}
        assert result.rounds == 2
        assert result.halted is True

    def test_zero_rounds_run_the_root_alone(self):
        from repro.obs import Tracer

        tracer = Tracer()
        result = run_rounds(self.path(), CountsRounds(5, "ID"), rounds=0, root=6, tracer=tracer)
        assert result.outputs == {6: ("partial", 0)}
        assert result.message_counts == []
        (span,) = tracer.find("local.run_rounds")
        assert span.attrs["cone"] == 1

    def test_cone_size_and_delivered_messages(self):
        """Two rounds from the middle of a 7-path: nodes 1-5 start; round 1
        delivers to 2-4 (six messages), round 2 to the root (two)."""
        from repro.obs import Tracer

        tracer = Tracer()
        result = run_rounds(self.path(), CountsRounds(10, "ID"), rounds=2, root=3, tracer=tracer)
        assert result.message_counts == [6, 2]
        (span,) = tracer.find("local.run_rounds")
        assert span.attrs["cone"] == 5
        assert span.attrs["nodes"] == 7
        assert span.attrs["messages"] == 8
        assert span.attrs["halted"] is False
        assert [s.attrs for s in tracer.find("local.round")] == [
            {"round": 0, "messages": 6}, {"round": 1, "messages": 2},
        ]

    @pytest.mark.parametrize("model", sorted(TestOneLoopTwoEntryPoints.NETWORKS))
    @pytest.mark.parametrize("budget", range(5))
    def test_every_root_agrees_with_the_full_run(self, model, budget):
        network = TestOneLoopTwoEntryPoints.NETWORKS[model]
        full = run_rounds(network(), FullInformation(model), rounds=budget)
        for v in network().nodes():
            cone = run_rounds(network(), FullInformation(model), rounds=budget, root=v)
            assert cone.outputs == {v: full.outputs[v]}


class FullInformation(DistributedAlgorithm):
    """Gathers every message it ever hears, by round and port: a node's
    state is its whole view, so any dropped or extra message shows."""

    def __init__(self, model: str):
        self.model = model

    def initial_state(self, ctx):
        return (ctx.ports,)

    def send(self, state, ctx):
        return {p: state for p in ctx.ports}

    def receive(self, state, ctx, inbox):
        return state + (tuple(sorted(inbox.items(), key=repr)),)

    def output(self, state, ctx):
        return None

    def snapshot(self, state, ctx):
        return state


def oriented_loopy_tree(n: int, loops: int, seed: int):
    """A random loopy PO-graph: a loopy tree whose tree edges point either way."""
    import random

    from repro.graphs.digraph import POGraph
    from repro.graphs.families import random_loopy_tree

    rng = random.Random(seed)
    g = POGraph()
    ec = random_loopy_tree(n, loops, seed)
    for v in ec.nodes():
        g.add_node(v)
    for e in ec.edges():
        tail, head = (e.u, e.v) if rng.random() < 0.5 else (e.v, e.u)
        g.add_edge(tail, head, e.color)
    return g


class TestLightConeDifferential:
    """The root-only run against the full run, its oracle, on every cover
    the oi and id chains evaluate at Δ = 2–4 and on random loopy PO-graphs
    and their radius-t covers."""

    @pytest.fixture(scope="class")
    def chain_evaluations(self):
        """``(adapter module, network, machine, rounds, root, root output)``
        of every evaluation the two OI adapters make in the adversary."""
        from repro.core import sim_oi_id, sim_po_oi
        from repro.core.adversary import run_adversary
        from repro.core.theorem import chain_from_name
        from repro.core.witness import AlgorithmFailure

        seen = []

        def recording(module):
            real = module.run_rounds

            def run_rounds_recorded(network, algorithm, rounds, **options):
                result = real(network, algorithm, rounds, **options)
                root = options["root"]
                seen.append((module.__name__, network, algorithm, rounds, root, result.outputs[root]))
                return result

            return run_rounds_recorded

        with pytest.MonkeyPatch.context() as patch:
            for module in (sim_po_oi, sim_oi_id):
                patch.setattr(module, "run_rounds", recording(module))
            for chain in ("oi", "id"):
                for delta in (2, 3, 4):
                    try:
                        run_adversary(chain_from_name(chain, t=delta), delta)
                    except AlgorithmFailure:
                        pass  # both chains are refuted at Δ = 3, after four covers
        return seen

    def test_chain_covers_agree_with_the_full_run(self, chain_evaluations):
        adapters = [name for name, *_ in chain_evaluations]
        assert adapters.count("repro.core.sim_po_oi") == 14
        assert adapters.count("repro.core.sim_oi_id") == 14
        for _, network, algorithm, rounds, root, output in chain_evaluations:
            assert run_rounds(network, algorithm, rounds).outputs[root] == output

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("machine", ["proposal", "doubling"])
    def test_loopy_po_graphs_and_their_covers(self, seed, machine):
        from repro.graphs.cover import universal_cover_po
        from repro.matching.kuhn_approx import DoublingFM
        from repro.matching.proposal import ProposalFM

        g = oriented_loopy_tree(6, 1 + seed % 2, seed)
        algorithm = ProposalFM("PO") if machine == "proposal" else DoublingFM("PO")
        globals_ = {"delta": g.max_degree()}
        t = 3
        for v in g.nodes():
            cover = universal_cover_po(g, v, t)
            for graph, root in ((g, v), (cover.tree, cover.root)):
                for rounds in range(t + 1):
                    full = run_rounds(PONetwork(graph, globals_), algorithm, rounds)
                    cone = run_rounds(PONetwork(graph, globals_), algorithm, rounds, root=root)
                    assert cone.outputs == {root: full.outputs[root]}


    def test_a_cone_run_builds_only_the_cones_contexts(self):
        from repro.graphs.cover import universal_cover_po
        from repro.matching.proposal import ProposalFM
        from repro.obs import Tracer

        g = oriented_loopy_tree(6, 1, 0)
        cover = universal_cover_po(g, g.nodes()[0], 4)
        network = PONetwork(cover.tree, {"delta": g.max_degree()})
        tracer = Tracer()
        run_rounds(network, ProposalFM("PO"), 2, root=cover.root, tracer=tracer)
        (span,) = tracer.find("local.run_rounds")
        assert len(network._contexts) == span.attrs["cone"] < len(network.nodes())
        assert network.nodes() == cover.tree.nodes()

    def test_an_id_cone_run_builds_only_the_cones_contexts(self):
        from repro.matching.proposal import ProposalFM

        network = IDNetwork(nx.path_graph(9))
        run_rounds(network, ProposalFM("ID"), 2, root=4)
        assert sorted(network._contexts) == [2, 3, 4, 5, 6]
        assert network.nodes() == list(range(9))


class Unhalting(DistributedAlgorithm):
    """Runs ``inner`` for the whole budget and reports, as its snapshot,
    what ``inner`` announces then (``None`` if nothing)."""

    def __init__(self, inner: DistributedAlgorithm):
        self.inner = inner
        self.model = inner.model

    def initial_state(self, ctx):
        return self.inner.initial_state(ctx)

    def send(self, state, ctx):
        return self.inner.send(state, ctx)

    def receive(self, state, ctx, inbox):
        return self.inner.receive(state, ctx, inbox)

    def output(self, state, ctx):
        return None

    def snapshot(self, state, ctx):
        return self.inner.output(state, ctx)


def shipped_machines():
    """Every shipped :class:`DistributedAlgorithm`, each on a few networks of
    its model with the globals it needs: ``(id, network factory, machine)``."""
    import random

    from repro.core.separations import GreedyColorMatching
    from repro.graphs.families import path_graph, random_loopy_tree, random_regular_graph
    from repro.local.randomized import tape_globals, uniform_tape
    from repro.local.views import FullInformationEC
    from repro.matching.greedy_color import GreedyColorFM, greedy_color_algorithm
    from repro.matching.kuhn_approx import DoublingFM
    from repro.matching.naive import ParityTiltFM
    from repro.matching.proposal import ProposalFM
    from repro.matching.random_priority import RandomPriorityFM
    from repro.matching.verify import LocalFMVerifier

    ec_graphs = {
        "loops": single_node_with_loops(2),
        "path": path_graph(4),
        "loopy-tree": random_loopy_tree(6, 1, seed=3),
        "regular": random_regular_graph(8, 3, seed=1),
    }
    id_graphs = {
        "path": nx.path_graph(4),
        "cycle": nx.cycle_graph(5),
        "petersen": nx.petersen_graph(),
    }

    def tape(nodes, seed):
        return tape_globals(uniform_tape(nodes, random.Random(seed)))

    cases = []
    for name, g in ec_graphs.items():
        palette = {"palette": g.colors()}
        delta = {"delta": max(g.max_degree(), 1)}
        valid = greedy_color_algorithm().run_on(g)
        cases += [
            (f"ProposalFM-EC-{name}", lambda g=g: ECNetwork(g), ProposalFM("EC")),
            (f"GreedyColorFM-{name}", lambda g=g, p=palette: ECNetwork(g, p), GreedyColorFM()),
            (f"DoublingFM-EC-{name}", lambda g=g, d=delta: ECNetwork(g, d), DoublingFM("EC")),
            (f"RandomPriorityFM-EC-{name}",
             lambda g=g: ECNetwork(g, tape(g.nodes(), 5)), RandomPriorityFM("EC")),
            (f"GreedyColorMatching-{name}", lambda g=g, p=palette: ECNetwork(g, p), GreedyColorMatching()),
            (f"FullInformationEC-{name}", lambda g=g: ECNetwork(g), FullInformationEC(2)),
            (f"LocalFMVerifier-{name}", lambda g=g: ECNetwork(g), LocalFMVerifier(valid)),
        ]
        d = po_double_from_ec(g)
        cases += [
            (f"ProposalFM-PO-{name}", lambda d=d: PONetwork(d), ProposalFM("PO")),
            (f"DoublingFM-PO-{name}", lambda d=d, x=delta: PONetwork(d, x), DoublingFM("PO")),
        ]
    for name, g in id_graphs.items():
        delta = {"delta": max(d for _, d in g.degree())}
        cases += [
            (f"ProposalFM-ID-{name}", lambda g=g: IDNetwork(g), ProposalFM("ID")),
            (f"DoublingFM-ID-{name}", lambda g=g, x=delta: IDNetwork(g, x), DoublingFM("ID")),
            (f"RandomPriorityFM-ID-{name}",
             lambda g=g: IDNetwork(g, tape(g.nodes(), 7)), RandomPriorityFM("ID")),
            (f"ParityTiltFM-{name}", lambda g=g: IDNetwork(g), ParityTiltFM()),
        ]
    return cases


class TestAnnouncedOutputIsFinal:
    """The halting rule a root-only run relies on: an output announced
    after ``r`` rounds is unchanged after ``r + 2``."""

    HORIZON = 8

    @pytest.mark.parametrize(
        "network, machine",
        [case[1:] for case in shipped_machines()],
        ids=[case[0] for case in shipped_machines()],
    )
    def test_announced_output_is_final(self, network, machine):
        after = [
            run_rounds(network(), Unhalting(machine), rounds=r).outputs
            for r in range(self.HORIZON + 2)
        ]
        announced = 0
        for r in range(self.HORIZON):
            for v, output in after[r].items():
                if output is not None:
                    announced += 1
                    assert after[r + 2][v] == output, (r, v)
        assert announced  # some node announces within the horizon

    def test_every_shipped_machine_is_covered(self):
        import importlib
        import pkgutil

        import repro

        for module in pkgutil.walk_packages(repro.__path__, repro.__name__ + "."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        covered = {type(machine).__name__ for _, _, machine in shipped_machines()}
        shipped = {
            cls.__name__ for cls in all_subclasses(DistributedAlgorithm)
            if cls.__module__.startswith(repro.__name__ + ".")
        }
        assert shipped <= covered


def all_subclasses(cls):
    return set(cls.__subclasses__()).union(*(all_subclasses(sub) for sub in cls.__subclasses__()))
