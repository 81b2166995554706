"""Tests for JSON serialisation (repro.graphs.serialize)."""

from __future__ import annotations

import json

import pytest

from repro.core.adversary import run_adversary
from repro.graphs.families import cycle_graph, random_loopy_tree, single_node_with_loops
from repro.graphs.isomorphism import canonical_rooted_form, ec_isomorphic
from repro.graphs.multigraph import ECGraph
from repro.graphs.serialize import (
    decode_label,
    encode_label,
    graph_from_json,
    graph_to_json,
    witness_step_to_json,
)
from repro.matching.greedy_color import greedy_color_algorithm


class TestGraphRoundTrip:
    def test_simple_graph(self):
        g = cycle_graph(6)
        back = graph_from_json(graph_to_json(g))
        assert sorted(map(repr, back.nodes())) == sorted(map(repr, g.nodes()))
        assert {(e.eid, e.color) for e in back.edges()} == {
            (e.eid, e.color) for e in g.edges()
        }

    def test_loops_survive(self):
        g = single_node_with_loops(3)
        back = graph_from_json(graph_to_json(g))
        assert back.loop_count(0) == 3

    def test_tuple_labels(self):
        """Adversary graphs have nested tuple labels: must round-trip exactly."""
        g = random_loopy_tree(3, 1, seed=0)
        nested = g.relabel({v: (0, ("x", v)) for v in g.nodes()})
        back = graph_from_json(graph_to_json(nested))
        assert back.has_node((0, ("x", 0)))
        assert ec_isomorphic(back, nested)

    def test_adversary_graphs_round_trip(self):
        witness = run_adversary(greedy_color_algorithm(), 4)
        top = witness.steps[-1]
        back = graph_from_json(graph_to_json(top.graph_g))
        assert back.num_nodes() == top.graph_g.num_nodes()
        assert back.edge_at(top.node_g, top.color).is_loop

    def test_deterministic_output(self):
        g = cycle_graph(5)
        assert graph_to_json(g) == graph_to_json(g.copy())

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="unknown format"):
            graph_from_json(json.dumps({"format": "something-else"}))

    def test_unserialisable_label_rejected(self):
        g = ECGraph()
        g.add_node(frozenset([1]))
        with pytest.raises(TypeError):
            graph_to_json(g)


class TestLabelCodec:
    def test_canonical_form_roundtrip(self):
        """A canonical form nests tuples deeper than any label, with str leaves."""
        g = ECGraph()
        g.add_edge("a", "b", 1)
        g.add_edge("b", "b", 2)
        form = canonical_rooted_form(g, "a")
        assert decode_label(json.loads(json.dumps(encode_label(form)))) == form


class TestWitnessStep:
    def test_step_payload(self):
        witness = run_adversary(greedy_color_algorithm(), 4)
        step = witness.steps[-1]
        payload = json.loads(witness_step_to_json(step))
        assert payload["format"] == "repro-witness-step-v1"
        assert payload["index"] == 2
        assert payload["balls_isomorphic"] is True
        g_back = graph_from_json(json.dumps(payload["graph_g"]))
        assert g_back.num_nodes() == step.graph_g.num_nodes()


class TestSerializeReverifyIntegration:
    def test_witness_survives_round_trip_and_reverifies(self):
        """Serialise a witness step, reload the graphs, rebuild the step,
        and re-run the full (P1)-(P3) verification — the third-party
        auditor's workflow."""
        import json
        from fractions import Fraction

        from repro.core.witness import StepWitness, reverify_step

        witness = run_adversary(greedy_color_algorithm(), 5)
        step = witness.steps[-1]
        payload = json.loads(witness_step_to_json(step))
        rebuilt = StepWitness(
            index=payload["index"],
            graph_g=graph_from_json(json.dumps(payload["graph_g"])),
            graph_h=graph_from_json(json.dumps(payload["graph_h"])),
            node_g=step.node_g,
            node_h=step.node_h,
            color=payload["color"],
            weight_g=Fraction(payload["weight_g"]),
            weight_h=Fraction(payload["weight_h"]),
            balls_isomorphic=payload["balls_isomorphic"],
            loop_budget=payload["loop_budget"],
            trees=True,
            side=payload["side"],
        )
        assert reverify_step(rebuilt, witness.delta) == []
