"""Tests for the parallel experiment engine (repro.engine)."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    CacheStats,
    CanonicalFormCache,
    Cell,
    GridSpec,
    ResultStore,
    e1_grid,
    expand,
    graph_digest,
    run_cell,
    run_sweep,
    smoke_grid,
)
from repro.graphs.families import path_graph
from repro.graphs.isomorphism import canonical_rooted_form, use_canonical_cache
from repro.graphs.memo import FORMS, reset_memos
from repro.graphs.multigraph import ECGraph
from repro.obs import ProgressEmitter, Tracer, merge_trace_documents, use_tracer
from repro.obs.progress import read_progress_events


def loopy_pair():
    """Two structurally identical rooted graphs built with different edge ids."""
    g1 = ECGraph()
    g1.add_edge("a", "b", 1)
    g1.add_edge("b", "b", 2)
    g2 = ECGraph()
    g2.add_edge("b", "b", 2, eid=77)
    g2.add_edge("a", "b", 1, eid=99)
    return g1, g2


class TestGraphDigest:
    def test_identical_structure_same_digest(self):
        g1, g2 = loopy_pair()
        assert graph_digest(g1, "a") == graph_digest(g2, "a")

    def test_root_changes_digest(self):
        g1, _ = loopy_pair()
        assert graph_digest(g1, "a") != graph_digest(g1, "b")

    def test_edge_color_changes_digest(self):
        g1, _ = loopy_pair()
        g3 = ECGraph()
        g3.add_edge("a", "b", 5)
        g3.add_edge("b", "b", 2)
        assert graph_digest(g1, "a") != graph_digest(g3, "a")


class TestCanonicalFormCache:
    def test_hit_and_miss_counting(self):
        reset_memos()
        g1, g2 = loopy_pair()
        cache = CanonicalFormCache()
        f1 = cache.canonical_form(g1, "a")
        f2 = cache.canonical_form(g2, "a")
        assert f1 == f2 == canonical_rooted_form(g1, "a")
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction(self, monkeypatch):
        reset_memos()
        monkeypatch.setattr(FORMS, "limit", 2)
        cache = CanonicalFormCache()
        for n in (2, 3, 4):
            cache.canonical_form(path_graph(n), 0)
        assert len(FORMS) == 2
        assert cache.stats.evictions == 1
        # the evicted entry (n=2, least recently used) misses again
        cache.canonical_form(path_graph(2), 0)
        assert cache.stats.misses == 4
        assert cache.stats.hits == 0

    def test_instances_share_one_tier(self):
        reset_memos()
        g1, g2 = loopy_pair()
        first = CanonicalFormCache()
        form = first.canonical_form(g1, "a")
        second = CanonicalFormCache()
        assert second.canonical_form(g2, "a") == form
        assert (second.stats.hits, second.stats.misses) == (1, 0)
        assert list(FORMS.keys()) == [graph_digest(g1, "a")]

    def test_installed_cache_serves_isomorphism(self):
        reset_memos()
        g1, g2 = loopy_pair()
        cache = CanonicalFormCache()
        with use_canonical_cache(cache):
            from repro.graphs.isomorphism import canonical_form_of

            canonical_form_of(g1, "a")
            canonical_form_of(g2, "a")
        assert cache.stats.hits == 1

    def test_stats_keep_the_disk_keys_at_zero(self):
        stats = CacheStats(hits=2, misses=1).as_dict()
        assert stats["disk_hits"] == stats["shared_hits"] == 0
        assert stats["lookups"] == 3


class TestCacheStatsMerge:
    """The total-preserving merge over declared dataclass fields."""

    def test_merge_defaults_missing_counters_to_zero(self):
        # a pre-plan_hits worker snapshot must not poison the totals
        old_snapshot = {"hits": 3, "misses": 1}
        merged = CacheStats.merged([old_snapshot, CacheStats(plan_hits=2).as_dict()])
        assert merged.hits == 3 and merged.misses == 1 and merged.plan_hits == 2

    def test_merge_preserves_every_declared_counter(self):
        from dataclasses import fields

        one = CacheStats(**{f.name: i + 1 for i, f in enumerate(fields(CacheStats))})
        two = CacheStats(**{f.name: 10 * (i + 1) for i, f in enumerate(fields(CacheStats))})
        merged = CacheStats.merged([one.as_dict(), two.as_dict()])
        for f in fields(CacheStats):
            assert getattr(merged, f.name) == getattr(one, f.name) + getattr(two, f.name)

    def test_merge_is_associative(self):
        a = CacheStats(hits=5, misses=2, plan_hits=1)
        b = {"hits": 1, "misses": 7}  # an older snapshot without new counters
        c = CacheStats(plan_hits=3, evictions=1)
        left = CacheStats.merged([CacheStats.merged([a.as_dict(), b]).as_dict(), c.as_dict()])
        right = CacheStats.merged([a.as_dict(), CacheStats.merged([b, c.as_dict()]).as_dict()])
        flat = CacheStats.merged([a.as_dict(), b, c.as_dict()])
        assert left.as_dict() == right.as_dict() == flat.as_dict()

    def test_merge_accepts_stats_instances(self):
        merged = CacheStats.merged([CacheStats(hits=2), {"hits": 3}])
        assert merged.hits == 5


class TestGrid:
    def test_expand_is_sorted_and_complete(self):
        cells = expand(e1_grid())
        assert len(cells) == 12  # 2 algorithms x 6 deltas
        assert cells == sorted(cells)
        assert all(cell.chain == "ec" for cell in cells)

    def test_cell_key_roundtrip(self):
        cell = Cell("greedy", 5, "ec", 0)
        assert cell.key == "greedy/d5/ec/s0"
        assert Cell.from_dict(cell.as_dict()) == cell

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            expand(GridSpec(algorithms=("oracle",)))

    def test_rejects_deep_chain_for_non_proposal(self):
        with pytest.raises(ValueError, match="proposal"):
            expand(GridSpec(algorithms=("greedy",), chains=("po",)))

    def test_repeated_axis_values_name_each_cell_once(self):
        cells = expand(GridSpec(algorithms=("greedy", "greedy"), deltas=(3, 3), seeds=(0, 0)))
        assert [cell.key for cell in cells] == ["greedy/d3/ec/s0"]

    @pytest.mark.parametrize("axis", ["algorithms", "deltas", "chains", "seeds"])
    def test_empty_axis_rejected(self, axis):
        with pytest.raises(ValueError, match=f"grid axis '{axis}' is empty"):
            expand({axis: []})

    def test_from_mapping_accepts_scalars(self):
        spec = GridSpec.from_mapping({"algorithms": "greedy", "deltas": 4})
        assert spec.algorithms == ("greedy",)
        assert spec.deltas == (4,)

    def test_run_cell_row_is_deterministic(self):
        cell = Cell("greedy", 3)
        row1 = run_cell(cell)
        row2 = run_cell(cell)
        assert row1 == row2
        assert row1["status"] == "ok"
        assert row1["witness_depth"] == row1["expected_depth"] == 1


class TestResultStore:
    def test_rows_tolerate_torn_trailing_line(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(0, {"key": "a", "status": "ok"})
        with store.shard_path(0).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "b", "status"')  # the killed writer's torn line
        assert [row["key"] for row in store.rows()] == ["a"]

    def test_duplicate_keys_keep_first(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(0, {"key": "a", "status": "ok"})
        store.append(1, {"key": "a", "status": "refuted"})
        assert store.completed()["a"]["status"] == "ok"
        assert store.last_scan["duplicates"] == 1

    def test_torn_final_line_is_silent(self, tmp_path):
        import warnings

        store = ResultStore(tmp_path)
        store.append(0, {"key": "a", "status": "ok"})
        with store.shard_path(0).open("a", encoding="utf-8") as fh:
            fh.write('{"key": "b", "status"')
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            rows = store.rows()
        assert [row["key"] for row in rows] == ["a"]
        assert store.last_scan == {"torn_final": 1, "corrupt_lines": 0, "duplicates": 0}

    def test_mid_file_garbage_skipped_loudly(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(0, {"key": "a", "status": "ok"})
        with store.shard_path(0).open("ab") as fh:
            fh.write(b"\xfe\xfe not json \xfe\n")  # not even valid UTF-8
        store.append(0, {"key": "b", "status": "ok"})
        with pytest.warns(RuntimeWarning, match="mid-file corruption"):
            rows = store.rows()
        assert [row["key"] for row in rows] == ["a", "b"]
        assert store.last_scan["corrupt_lines"] == 1
        assert store.last_scan["torn_final"] == 0

    def test_mid_file_damage_is_counted_on_the_tracer(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(0, {"key": "a", "status": "ok"})
        with store.shard_path(0).open("a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        store.append(0, {"key": "b", "status": "ok"})
        tracer = Tracer()
        with use_tracer(tracer), pytest.warns(RuntimeWarning):
            store.rows()
        counters = {
            (c["name"], c["labels"].get("outcome")): c["value"]
            for c in tracer.metrics.snapshot()["counters"]
        }
        assert counters[("engine.store", "corrupt_line")] == 1


class TestRunSweep:
    def test_parallel_rows_byte_identical_to_serial(self):
        grid = smoke_grid()
        serial = run_sweep(grid, workers=0)
        parallel = run_sweep(grid, workers=2)
        assert json.dumps(serial.rows, sort_keys=True) == json.dumps(
            parallel.rows, sort_keys=True
        )
        assert serial.cache.hits > 0
        assert parallel.cache.hits > 0

    def test_merged_trace_reports_cache_hits(self):
        result = run_sweep(GridSpec(algorithms=("greedy",), deltas=(3, 4)), workers=0)
        assert result.trace["cache"]["hits"] == result.cache.hits > 0
        counters = {
            (row["name"], tuple(sorted(row["labels"].items())))
            for row in result.trace["metrics"]["counters"]
        }
        assert ("engine.canonical_cache", (("outcome", "hit"),)) in counters

    def test_resume_skips_completed_cells(self, tmp_path):
        grid = GridSpec(algorithms=("greedy",), deltas=(3, 4, 5))
        first = run_sweep(grid, workers=0, out_dir=tmp_path)
        assert first.resumed == 0
        # drop one shard row: simulate a sweep killed before finishing
        store = ResultStore(tmp_path)
        surviving = [row for row in store.rows() if row["delta"] != 5]
        for path in tmp_path.glob("shard-*.jsonl"):
            path.unlink()
        for row in surviving:
            store.append(0, row)
        second = run_sweep(grid, workers=0, out_dir=tmp_path, resume=True)
        assert second.resumed == 2
        assert len(second.rows) == 3
        assert json.dumps(second.rows, sort_keys=True) == json.dumps(
            first.rows, sort_keys=True
        )
        # only the missing cell was recomputed
        assert second.cache.lookups < first.cache.lookups

    def test_resume_without_out_dir_raises(self):
        with pytest.raises(ValueError, match="out_dir"):
            run_sweep(smoke_grid(), resume=True)

    def test_out_dir_artifacts(self, tmp_path):
        run_sweep(GridSpec(algorithms=("greedy",), deltas=(3,)), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert summary["cells"] == 1
        assert summary["rows"][0]["key"] == "greedy/d3/ec/s0"
        assert (tmp_path / "trace.json").exists()

    def test_no_cache_disables_memoization(self):
        result = run_sweep(GridSpec(algorithms=("greedy",), deltas=(3,)), use_cache=False)
        assert result.cache.lookups == 0

    def test_repeated_delta_computed_once_and_final_event_exact(self, tmp_path):
        # deltas (3, 3) used to compute its one cell twice and end with a
        # final event of done 1, total 2, pending 1
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0)
        grid = GridSpec(algorithms=("greedy",), deltas=(3, 3))
        result = run_sweep(grid, out_dir=tmp_path / "out", progress=emitter)
        assert [row["key"] for row in result.rows] == ["greedy/d3/ec/s0"]
        assert ResultStore(tmp_path / "out").count_rows() == 1
        final = read_progress_events(path)[-1]
        assert final["event"] == "final"
        assert final["done"] == final["total"] == 1 and final["pending"] == 0

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="grid axis 'deltas' is empty"):
            run_sweep({"deltas": []}, out_dir=tmp_path)
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize(
        ("options", "message"),
        [
            ({"workers": -3}, "workers must be >= 1, got -3"),
            ({"retries": -1}, "retries must be >= 0"),
            ({"max_restarts": -1}, "max_restarts must be >= 0"),
            ({"cell_timeout": -1.0}, "cell_timeout must be positive"),
            ({"cell_timeout": 0}, "cell_timeout must be positive"),
            ({"backend": "carrier-pigeon"}, "unknown backend"),
            ({"backend": "inline", "hosts": "h:1"}, "hosts only apply to the socket backend"),
        ],
    )
    def test_execution_options_validated_once_for_every_caller(self, options, message):
        with pytest.raises(ValueError, match=message):
            run_sweep(smoke_grid(), **options)

    def test_executor_instance_accepted(self):
        from repro.engine.executors import InlineExecutor

        result = run_sweep(GridSpec(algorithms=("greedy",), deltas=(3,)), backend=InlineExecutor())
        assert result.backend == "inline" and len(result.rows) == 1

    def test_sweep_nests_under_ambient_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            run_sweep(GridSpec(algorithms=("greedy",), deltas=(3,)))
        names = [span.name for span in tracer.iter_spans()]
        assert "engine.sweep" in names


class TestMergeTraceDocuments:
    def test_counters_sum_and_roots_annotated(self):
        docs = []
        for index in range(2):
            tracer = Tracer()
            with use_tracer(tracer):
                with tracer.span("work", shard=index):
                    tracer.metrics.counter("jobs", kind="x").inc(2)
            from repro.obs import trace_document

            docs.append(trace_document(tracer))
        merged = merge_trace_documents(docs, command="test")
        assert merged["merged_from"] == 2
        jobs = [
            row
            for row in merged["metrics"]["counters"]
            if row["name"] == "jobs"
        ]
        assert jobs[0]["value"] == 4
        assert [span["attrs"]["merged_from"] for span in merged["spans"]] == [0, 1]
