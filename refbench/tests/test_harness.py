"""Tests of the benchmark harness's own logic (no program runs here).

    python3 -m pytest refbench/tests -q
"""

import statistics
import sys
import types
from collections import Counter

import pytest

from harness import check, layers, spans, stats
from harness.workloads import WORKLOADS, BatchWorkload

class Clock:
    """A clock that only moves when the test says work happened."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


# -- spans and self time ------------------------------------------------


def test_self_time_is_duration_minus_wrapped_children():
    clock = Clock()
    rec = spans.Recorder(clock)

    def leaf():
        clock.work(2)

    def mid():
        clock.work(1)
        leaf_w()
        clock.work(1)
        leaf_w()

    leaf_w = rec.wrap("leaf", leaf)
    mid_w = rec.wrap("mid", mid)
    rec.wrap("top", lambda: (clock.work(3), mid_w(), clock.work(0.5)))()

    table = spans.by_name(rec.spans)
    assert table["top"] == {"calls": 1, "self_s": 3.5}
    assert table["mid"] == {"calls": 1, "self_s": 2}
    assert table["leaf"] == {"calls": 2, "self_s": 4}
    assert sum(row["self_s"] for row in table.values()) == 9.5
    assert spans.unattributed(rec.spans, -1.0, 11.0) == 2.5


def test_reentrant_wrapper_is_its_own_child():
    clock = Clock()
    rec = spans.Recorder(clock)

    def walk(depth):
        clock.work(1)
        if depth:
            walk_w(depth - 1)
        clock.work(1)

    walk_w = rec.wrap("walk", walk)
    walk_w(3)
    table = spans.by_name(rec.spans)
    assert table["walk"]["calls"] == 4
    assert table["walk"]["self_s"] == 8  # 2 per level, never counted twice
    by_sid = {s.sid: s for s in rec.spans}
    outer = min(rec.spans, key=lambda s: s.start)
    assert outer.parent is None and outer.duration == 8
    assert all(by_sid[s.parent].name == "walk" for s in rec.spans if s.parent)
    assert len({s.run for s in rec.spans}) == 1


def test_span_closes_when_the_call_raises():
    clock = Clock()
    rec = spans.Recorder(clock)

    def boom():
        clock.work(1)
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    rec.wrap("after", lambda: clock.work(1))()
    assert [s.parent for s in rec.spans] == [None, None]
    assert spans.by_name(rec.spans)["boom"]["self_s"] == 1


def test_run_ids_name_roots_and_follow_children():
    rec = spans.Recorder(Clock())
    child = rec.wrap("child", lambda: None)
    job = rec.wrap("job", lambda service, job: child(), run_of=lambda service, job: job)
    submit = rec.wrap("submit", lambda: "job-7", run_of_result=lambda result: result)
    job(None, "job-3")
    submit()
    assert {s.name: s.run for s in rec.spans} == {"child": "job-3", "job": "job-3", "submit": "job-7"}


def test_tables_of_separate_processes_add_up():
    clock = Clock()
    parent, worker = spans.Recorder(clock), spans.Recorder(clock)
    parent.wrap("cell", lambda: clock.work(1))()
    worker.wrap("cell", lambda: clock.work(2))()  # same span id 1, another process
    table = spans.by_name(parent.spans)
    spans.add_table(table, spans.by_name(worker.spans))
    assert table == {"cell": {"calls": 2, "self_s": 3}}


def test_dump_and_load_round_trip(tmp_path):
    clock = Clock()
    rec = spans.Recorder(clock)
    rec.wrap("a", lambda: clock.work(1))()
    rec.dump(tmp_path / "spans.json")
    assert spans.load(tmp_path / "spans.json") == rec.spans


def test_install_patches_every_lookup_site(monkeypatch):
    home = types.ModuleType("repro.fake_home")
    caller = types.ModuleType("repro.fake_caller")

    def target():
        return "done"

    class Thing:
        def method(self):
            return "m"

    home.target, home.Thing = target, Thing
    caller.target = target  # a `from repro.fake_home import target` caller
    caller.alias = target
    for mod in (home, caller):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    rec = spans.Recorder(Clock())
    missing = spans.install(
        rec,
        [
            ("t", "repro.fake_home", "target"),
            ("m", "repro.fake_home", "Thing.method"),
            ("gone", "repro.fake_home", "absent"),
        ],
    )
    assert missing == ["repro.fake_home:absent"]
    assert home.target() == caller.target() == caller.alias() == "done"
    assert Thing().method() == "m"
    assert Counter(s.name for s in rec.spans) == {"t": 3, "m": 1}


# -- statistics ---------------------------------------------------------


def test_percentiles_follow_the_ten_beyond_rule():
    values = list(range(1, 101))
    assert stats.quantile(values, 0.9) == pytest.approx(statistics.quantiles(values, n=10, method="inclusive")[-1])
    assert (stats.beyond(100, 0.9), stats.beyond(99, 0.9), stats.beyond(20, 0.5)) == (10, 9, 10)
    assert (stats.min_samples(0.9), stats.min_samples(0.5)) == (100, 20)


def test_report_prints_each_percentile_with_its_count_and_flags_thin_ones():
    import run

    config = run.load_config()
    base = {"setup_s": [1.0, 1.1, 0.9], "wall_s": [2.0], "peak_rss_mb": [3.0], "harness.calib_s": [0.1]}
    metrics, table = run.end_to_end_report(dict(base, job_p50_s=list(range(20)), job_p90_s=list(range(99))), config)
    rows = {line.split()[0]: line.split() for line in table.splitlines()[1:]}
    assert rows["job_p50_s"][6] == "20" and len(rows["job_p50_s"]) == 7
    assert rows["job_p90_s"][6] == "99" and " ".join(rows["job_p90_s"][7:]) == "only 9 samples beyond p90"
    assert metrics["job_p90_s"] == {"value": stats.quantile(range(99), 0.9), "unit": "s"}
    assert metrics["setup_s"]["value"] == 1.0
    _, table = run.end_to_end_report(dict(base, job_p50_s=list(range(20)), job_p90_s=list(range(100))), config)
    assert "beyond" not in table


def test_summary_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6, 5.3, 5.8, 9.7]
    s = stats.summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert (s.n, s.median, s.q1, s.q3) == (10, statistics.median(values), q1, q3)
    assert s.spread == pytest.approx((q3 - q1) / statistics.median(values))
    one = stats.summarize([2.0])
    assert (one.n, one.median, one.q1, one.q3) == (1, 2.0, 2.0, 2.0)


# -- workloads ----------------------------------------------------------


def test_service_schedule_is_deterministic_per_seed():
    service = WORKLOADS["service"]
    rounds = service.rounds(15, stats.min_samples(0.9))
    assert service.schedule(4, 0, rounds) == service.schedule(4, 0, rounds)
    assert service.schedule(4, 0, rounds) != service.schedule(5, 0, rounds)
    assert service.schedule(4, 0, rounds) != service.schedule(4, 1, rounds)
    assert rounds * len(service.deck()) * service.tenants >= stats.min_samples(0.9)
    # every seed submits the same mix of cells, in its own order
    mix = lambda seed: Counter(  # noqa: E731
        (g["algorithms"][0], g["deltas"][0]) for t in range(service.tenants) for g in service.schedule(seed, t, rounds)
    )
    assert mix(1) == mix(2) == Counter({cell: rounds * service.tenants for cell in service.deck()})


def test_batch_seed_maps_to_the_seeds_axis():
    ladder_w2 = WORKLOADS["ladder-w2"]
    assert isinstance(ladder_w2, BatchWorkload)
    assert ladder_w2.grid(7)["seeds"] == [7, 8]
    assert ladder_w2.cells == 4


# -- correctness checks -------------------------------------------------


def _rows(seed):
    templates = check.load_reference()["service"]
    grid = {"algorithms": ["greedy", "proposal"], "deltas": [5, 6], "chains": ["ec"], "seeds": [seed]}
    return grid, check.expected_rows(grid, templates)


def test_rows_normalise_across_seeds():
    _, rows0 = _rows(0)
    _, rows9 = _rows(9)
    assert check.checksum(check.normalise(rows9, [9])) == check.checksum(check.normalise(rows0, [0]))


def test_check_accepts_reference_rows_and_rejects_a_tampered_row():
    grid, rows = _rows(3)
    sha = check.checksum(check.normalise(rows, [3]))
    assert check.check_batch(rows, [3], 4, sha) == {"failed": 0, "problems": []}
    templates = check.load_reference()["service"]
    assert check.check_job(rows, grid, templates) == []

    tampered = [dict(r) for r in rows]
    tampered[1]["final_graph_nodes"] += 1
    verdict = check.check_batch(tampered, [3], 4, sha)
    assert verdict["failed"] == 4 and "checksum" in verdict["problems"][0]
    assert check.check_job(tampered, grid, templates)

    shallow = [dict(r) for r in rows]
    shallow[0]["witness_depth"] -= 1
    verdict = check.check_batch(shallow, [3], 4, sha)
    assert verdict["failed"] == 4
    assert any("witness_depth" in p for p in verdict["problems"])
    assert check.check_batch(rows[:3], [3], 4, sha)["failed"] == 4


def test_row_problems_names_each_defect():
    _, rows = _rows(0)
    row = dict(rows[0], status="refuted", all_valid=False)
    problems = check.row_problems(row)
    assert any("status" in p for p in problems) and any("valid" in p for p in problems)


# -- start-up attribution -------------------------------------------------


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   encodings
import time:      5000 |       5000 |       numpy
import time:       300 |       5300 |     repro.graphs.kernel
import time:       200 |       5500 |   repro.graphs
import time:     60000 |      60000 |         scipy.optimize
import time:       400 |      60400 |       repro.matching.lp
import time:        50 |      60450 |     repro.matching
import time:        10 |      60460 |   repro.core
import time:        20 |     126080 | repro
"""


def test_import_times_charge_third_party_modules_to_their_importer():
    charged = layers.import_times(IMPORTTIME)
    assert charged["setup.import.graphs_s"] == pytest.approx(0.0055)
    assert charged["setup.import.matching_s"] == pytest.approx(0.06045)
    assert charged["setup.import.core_s"] == pytest.approx(0.00001)
    assert charged["setup.import.service_s"] == 0


# -- the benchmark's declaration --------------------------------------------


def test_benchmark_json_declares_every_metric_the_harness_reports():
    import run

    config = run.load_config()
    per_layer = {m["name"] for m in config["per_layer"]}
    assert set(layers.span_metrics({})) <= per_layer
    assert set(layers.import_times("")) <= per_layer
    assert set(run.PERCENTILE) <= {m["name"] for m in config["end_to_end"]}
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
