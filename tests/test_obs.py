"""Tests for the observability layer (repro.obs): tracer, metrics, exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    NullTracer,
    TRACE_SCHEMA_VERSION,
    Tracer,
    count_spans,
    current_tracer,
    merge_metrics_snapshots,
    merge_trace_documents,
    profile_rows,
    render_profile,
    render_tree,
    span_to_dict,
    trace_document,
    use_tracer,
    write_bench_artifact,
    write_json,
    write_jsonl,
)
from repro.obs.metrics import bucket_key, percentile_from_buckets


class FakeClock:
    """Deterministic monotonic clock: every read advances by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner.a"):
                pass
            with tracer.span("inner.b"):
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in tracer.roots[0].children] == ["inner.a", "inner.b"]

    def test_durations_come_from_the_injected_clock(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("solo"):
            pass
        (span,) = tracer.roots
        assert span.duration == pytest.approx(1.0)

    def test_self_time_excludes_children(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.self_time == pytest.approx(outer.duration - inner.duration)
        assert inner.self_time == pytest.approx(inner.duration)

    def test_set_and_add_record_attrs_and_counters(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", phase="test") as span:
            span.set(rounds=3)
            span.add("messages", 5)
            span.add("messages", 2)
            span.add("covers")
        (span,) = tracer.roots
        assert span.attrs == {"phase": "test", "rounds": 3}
        assert span.counters == {"messages": 7, "covers": 1}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.roots
        assert span.attrs["error"] == "RuntimeError"
        assert span.end is not None  # closed despite the exception

    def test_iter_spans_is_depth_first(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c"]

    def test_find_returns_matching_spans(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("x"):
            with tracer.span("y"):
                pass
            with tracer.span("y"):
                pass
        assert len(tracer.find("y")) == 2
        assert tracer.find("missing") == []


class TestNullTracer:
    def test_is_disabled_and_reusable(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", attr=1) as span:
            span.set(x=1)
            span.add("c")
        # nothing recorded, nothing raised
        assert isinstance(NULL_TRACER, NullTracer)

    def test_null_span_swallows_nothing(self):
        """The no-op span must not suppress exceptions."""
        with pytest.raises(ValueError):
            with NULL_TRACER.span("s"):
                raise ValueError("escapes")

    def test_ambient_default_is_null(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer(clock=FakeClock())
        with use_tracer(tracer):
            assert current_tracer() is tracer
            with current_tracer().span("via-ambient"):
                pass
        assert current_tracer() is NULL_TRACER
        assert count_spans(tracer, "via-ambient") == 1

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError
        assert current_tracer() is NULL_TRACER


class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("runs", model="EC")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("runs").inc(-1)

    def test_labels_key_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("runs", model="EC")
        b = reg.counter("runs", model="PO")
        again = reg.counter("runs", model="EC")
        assert a is again and a is not b

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(7)
        h = reg.histogram("latency")
        for v in (1, 2, 3):
            h.observe(v)
        snap = reg.snapshot()
        (gauge_row,) = snap["gauges"]
        assert gauge_row["value"] == 7
        (hist_row,) = snap["histograms"]
        assert hist_row["count"] == 3
        assert hist_row["min"] == 1 and hist_row["max"] == 3
        assert hist_row["mean"] == pytest.approx(2.0)

    def test_snapshot_includes_labels(self):
        reg = MetricsRegistry()
        reg.counter("steps", algorithm="greedy", delta=5).inc()
        (row,) = reg.snapshot()["counters"]
        assert row["labels"] == {"algorithm": "greedy", "delta": "5"}

    def test_null_registry_via_null_tracer(self):
        # metric calls through the disabled tracer are harmless no-ops
        NULL_TRACER.metrics.counter("x", any_label=1).inc(10)
        NULL_TRACER.metrics.gauge("y").set(2)
        NULL_TRACER.metrics.histogram("z").observe(3)


def make_traced(clock=None):
    tracer = Tracer(clock=clock or FakeClock())
    with tracer.span("root", kind="test"):
        with tracer.span("child") as s:
            s.add("messages", 2)
    tracer.metrics.counter("runs", model="EC").inc()
    return tracer


class TestExport:
    def test_span_to_dict_nests_children(self):
        tracer = make_traced()
        doc = span_to_dict(tracer.roots[0])
        assert doc["name"] == "root"
        assert doc["attrs"] == {"kind": "test"}
        (child,) = doc["children"]
        assert child["name"] == "child"
        assert child["counters"] == {"messages": 2}

    def test_trace_document_schema(self):
        doc = trace_document(make_traced(), command="unit-test")
        assert doc["version"] == TRACE_SCHEMA_VERSION
        assert doc["command"] == "unit-test"
        assert len(doc["spans"]) == 1
        assert doc["metrics"]["counters"][0]["name"] == "runs"

    def test_write_json_round_trips(self, tmp_path):
        path = tmp_path / "trace.json"
        write_json(make_traced(), path, command="t")
        loaded = json.loads(path.read_text())
        assert loaded["version"] == TRACE_SCHEMA_VERSION
        assert loaded["spans"][0]["children"][0]["name"] == "child"

    def test_write_jsonl_links_parents(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(make_traced(), path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        root, child = rows
        assert root["parent"] is None
        assert child["parent"] == root["id"]

    def test_render_tree_respects_max_depth(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        deep = render_tree(tracer, max_depth=5)
        assert "c" in deep
        shallow = render_tree(tracer, max_depth=1)
        assert "c" not in shallow
        assert "nested" in shallow  # cutoff is announced, not silent

    def test_profile_rows_aggregate_and_sort_by_self_time(self):
        clock = FakeClock(step=1.0)
        tracer = Tracer(clock=clock)
        with tracer.span("hot"):
            with tracer.span("cold"):
                pass
        with tracer.span("hot"):
            pass
        rows = profile_rows(tracer)
        assert rows[0]["name"] == "hot"
        assert rows[0]["calls"] == 2
        table = render_profile(rows, top=1)
        assert "hot" in table and "cold" not in table

    def test_count_spans(self):
        tracer = make_traced()
        assert count_spans(tracer, "child") == 1
        assert count_spans(tracer, "nope") == 0

    def test_write_bench_artifact_schema(self, tmp_path):
        path = write_bench_artifact(
            tmp_path / "BENCH_E9.json",
            "E9",
            [{"experiment": "E9 demo", "rows": [{"delta": 3, "depth": 1}]}],
            lint={"clean": True, "total": 0, "by_rule": {}},
            profile=[{"name": "x", "count": 1, "total": 0.1, "self": 0.1, "mean": 0.1}],
        )
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["experiment_id"] == "E9"
        assert doc["series"][0]["rows"] == [{"delta": 3, "depth": 1}]
        assert doc["lint"]["clean"] is True
        assert doc["profile"][0]["name"] == "x"


class TestInstrumentationIntegration:
    """The runtime and adversary actually emit the documented spans."""

    def test_run_emits_round_spans_with_message_counts(self):
        from repro.graphs.families import cycle_graph
        from repro.local.runtime import ECNetwork, run
        from tests.test_runtime import CountsRounds

        tracer = Tracer()
        result = run(ECNetwork(cycle_graph(4)), CountsRounds(2), tracer=tracer)
        (run_span,) = tracer.find("local.run")
        assert run_span.attrs["rounds"] == result.rounds
        rounds = tracer.find("local.round")
        assert len(rounds) == result.rounds
        assert rounds[0].attrs["messages"] == 8  # 4 nodes x 2 ports

    def test_adversary_emits_one_step_span_per_level(self):
        from repro.core.adversary import run_adversary
        from repro.matching.greedy_color import greedy_color_algorithm

        delta = 5
        tracer = Tracer()
        witness = run_adversary(greedy_color_algorithm(), delta, tracer=tracer)
        steps = tracer.find("adversary.step")
        # base case + Delta-2 induction steps
        assert len(steps) == delta - 1
        assert witness.achieved_depth == delta - 2
        (outer,) = tracer.find("adversary.run")
        assert outer.attrs["achieved_depth"] == delta - 2
        assert tracer.find("adversary.unfold") and tracer.find("adversary.mix")

    def test_simulation_chain_emits_layer_spans(self):
        from repro.core.theorem import chain_po_to_ec, refute
        from repro.local.algorithm import SimulatedPOWeights
        from repro.matching.proposal import ProposalFM

        tracer = Tracer()
        ec = chain_po_to_ec(SimulatedPOWeights(ProposalFM("PO")))
        # simulation-layer spans attach via the ambient tracer
        with use_tracer(tracer):
            report = refute(ec, claimed_rounds=1, delta=4, tracer=tracer)
        assert report.kind in ("incorrect-output", "locality-violation")
        (refute_span,) = tracer.find("theorem.refute")
        assert refute_span.attrs["kind"] in ("incorrect-output", "locality-violation")
        assert tracer.find("sim.ec_from_po")


class TestHistogramPercentiles:
    def test_bucket_key_is_log2_with_an_underflow_bucket(self):
        assert bucket_key(0) == "-inf"
        assert bucket_key(-3) == "-inf"
        assert bucket_key(1) == "0"
        assert bucket_key(2) == "1"
        assert bucket_key(3) == "2"  # bucket e covers (2**(e-1), 2**e]
        assert bucket_key(4) == "2"
        assert bucket_key(0.5) == "-1"

    def test_single_value_reports_itself_exactly(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        h.observe(7)
        assert h.p50 == 7 and h.p95 == 7  # clamped into [min, max]

    def test_percentiles_walk_the_bucket_edges(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in range(1, 101):
            h.observe(v)
        # rank 50 lands in bucket "6" = (32, 64]; its upper edge is reported
        assert h.p50 == 64.0
        # rank 95 lands in bucket "7" = (64, 128], clamped to the true max
        assert h.p95 == 100.0

    def test_non_positive_values_share_the_underflow_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("delta")
        h.observe(0)
        h.observe(0)
        assert h.buckets == {"-inf": 2}
        assert h.p50 == 0.0 and h.p95 == 0.0

    def test_empty_histogram_has_no_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("unused")
        assert h.p50 is None and h.p95 is None
        assert percentile_from_buckets({}, 0, 0.5) is None

    def test_snapshot_rows_carry_percentiles_and_sorted_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        for v in (0, 1, 1024):
            h.observe(v)
        (row,) = reg.snapshot()["histograms"]
        assert row["p50"] == 1.0 and row["p95"] == 1024.0
        assert list(row["buckets"]) == ["-inf", "0", "10"]


def snapshot_of(build) -> dict:
    reg = MetricsRegistry()
    build(reg)
    return reg.snapshot()


class TestSnapshotMerge:
    def test_merging_no_snapshots_yields_an_empty_snapshot(self):
        assert merge_metrics_snapshots([]) == {
            "counters": [],
            "gauges": [],
            "histograms": [],
        }

    def test_label_collisions_across_workers_stay_separate_rows(self):
        a = snapshot_of(lambda r: r.counter("runs", model="EC").inc(2))

        def build_b(r):
            r.counter("runs", model="EC").inc(3)
            r.counter("runs", model="PO").inc(1)

        b = snapshot_of(build_b)
        merged = merge_metrics_snapshots([a, b])
        rows = {tuple(sorted(row["labels"].items())): row["value"]
                for row in merged["counters"]}
        # same name + same labels sum; same name + different labels never mix
        assert rows[(("model", "EC"),)] == 5
        assert rows[(("model", "PO"),)] == 1

    def test_gauges_keep_the_last_written_value(self):
        a = snapshot_of(lambda r: r.gauge("depth").set(1))
        b = snapshot_of(lambda r: r.gauge("depth").set(9))
        merged = merge_metrics_snapshots([a, b])
        assert merged["gauges"][0]["value"] == 9

    def test_histograms_widen_and_recompute_percentiles(self):
        def build_low(r):
            for v in (1, 2):
                r.histogram("latency").observe(v)

        def build_high(r):
            for v in (64, 100):
                r.histogram("latency").observe(v)

        merged = merge_metrics_snapshots([snapshot_of(build_low), snapshot_of(build_high)])
        (row,) = merged["histograms"]
        assert row["count"] == 4
        assert row["min"] == 1 and row["max"] == 100
        assert row["mean"] == pytest.approx(167 / 4)
        # merged p50/p95 come from the merged buckets, not either input's
        assert row["p50"] == 2.0
        assert row["p95"] == 100.0

    def test_merge_does_not_mutate_the_input_snapshots(self):
        a = snapshot_of(lambda r: r.histogram("latency").observe(1))
        b = snapshot_of(lambda r: r.histogram("latency").observe(100))
        before = json.dumps(a, sort_keys=True)
        merge_metrics_snapshots([a, b])
        assert json.dumps(a, sort_keys=True) == before

    def test_histogram_merge_is_associative(self):
        def worker(values):
            def build(r):
                r.counter("rows").inc(len(values))
                for v in values:
                    r.histogram("latency", shard="s").observe(v)

            return snapshot_of(build)

        a, b, c = worker([1, 3]), worker([8, 0]), worker([900])
        left = merge_metrics_snapshots([a, merge_metrics_snapshots([b, c])])
        right = merge_metrics_snapshots([merge_metrics_snapshots([a, b]), c])
        assert json.dumps(left, sort_keys=True) == json.dumps(right, sort_keys=True)

    def test_merge_trace_documents_annotates_root_origins(self):
        docs = [trace_document(make_traced(), command="w0"),
                trace_document(make_traced(), command="w1")]
        merged = merge_trace_documents(docs, command="sweep")
        assert merged["merged_from"] == 2
        assert [s["attrs"]["merged_from"] for s in merged["spans"]] == [0, 1]
        assert merged["metrics"]["counters"][0]["value"] == 2  # 1 run per worker

    def test_merge_trace_documents_of_nothing(self):
        merged = merge_trace_documents([])
        assert merged["merged_from"] == 0 and merged["spans"] == []
