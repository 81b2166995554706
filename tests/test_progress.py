"""Tests for live sweep progress telemetry (repro.obs.progress + engine wiring)."""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.engine import CellExecutionError, Fault, FaultPlan, GridSpec, ProcessExecutor, run_sweep
from repro.obs import NULL_PROGRESS, ProgressEmitter
from repro.obs.progress import (
    PROGRESS_SCHEMA_VERSION,
    NullProgressEmitter,
    read_progress_events,
)


class FakeClock:
    """Deterministic monotonic clock: every read advances by ``step``."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class FakeTTY(io.StringIO):
    def isatty(self) -> bool:
        return True


class TestProgressEmitter:
    def test_start_and_final_events_bracket_the_run(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, clock=FakeClock())
        emitter.start(total=4)
        emitter.finish(done=4, cache_hits=3, cache_lookups=4)
        events = read_progress_events(path)
        assert [e["event"] for e in events] == ["start", "final"]
        final = events[-1]
        assert final["schema"] == PROGRESS_SCHEMA_VERSION
        assert final["done"] == 4 and final["pending"] == 0
        assert final["cache_hit_rate"] == 0.75

    def test_heartbeats_are_throttled_by_the_injected_clock(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=10.0, clock=FakeClock(step=1.0))
        emitter.start(total=100)
        for done in range(1, 30):
            emitter.update(done)
        emitter.finish(done=100)
        events = read_progress_events(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start" and kinds[-1] == "final"
        heartbeats = [e for e in events if e["event"] == "heartbeat"]
        # 29 update calls, one clock tick each, 10s throttle: far fewer emits
        assert 1 <= len(heartbeats) < 10

    def test_force_bypasses_the_throttle(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=1e9, clock=FakeClock())
        emitter.start(total=10)
        emitter.update(1)  # throttled away
        emitter.update(2, force=True)
        emitter.finish(done=10)
        kinds = [e["event"] for e in read_progress_events(path)]
        assert kinds == ["start", "heartbeat", "final"]

    def test_close_without_finish_emits_aborted_with_last_counts(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0, clock=FakeClock())
        emitter.start(total=10)
        emitter.update(3, failed=1)
        emitter.close()
        events = read_progress_events(path)
        assert events[-1]["event"] == "aborted"
        assert events[-1]["done"] == 3 and events[-1]["failed"] == 1

    def test_updates_after_finish_are_ignored(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, clock=FakeClock())
        emitter.start(total=2)
        emitter.finish(done=2)
        emitter.update(99, force=True)
        emitter.close()
        events = read_progress_events(path)
        assert [e["event"] for e in events] == ["start", "final"]

    def test_done_is_clamped_to_total(self, tmp_path):
        # parallel heartbeats over-count transiently (store rows are an
        # upper bound); the emitted event must never claim done > total
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0, clock=FakeClock())
        emitter.start(total=4)
        emitter.update(7, force=True)
        emitter.finish(done=4)
        heartbeat = read_progress_events(path)[1]
        assert heartbeat["done"] == 4 and heartbeat["pending"] == 0

    def test_eta_and_rate_come_from_computed_cells_only(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0, clock=FakeClock(step=1.0))
        emitter.start(total=10, resumed=4)
        emitter.update(6, force=True)
        heartbeat = read_progress_events(path)[1]
        # 2 computed cells (6 done - 4 resumed) over >0 elapsed seconds
        assert heartbeat["resumed"] == 4
        assert heartbeat["rows_per_s"] is not None and heartbeat["rows_per_s"] > 0
        assert heartbeat["eta_s"] is not None and heartbeat["eta_s"] > 0

    def test_plain_stream_gets_one_line_per_event(self):
        stream = io.StringIO()
        emitter = ProgressEmitter(stream=stream, clock=FakeClock())
        emitter.start(total=3)
        emitter.finish(done=3)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "sweep 3/3 done" in lines[-1]
        assert "\r" not in stream.getvalue()

    def test_tty_stream_rewrites_a_single_status_line(self):
        stream = FakeTTY()
        emitter = ProgressEmitter(stream=stream, clock=FakeClock())
        emitter.start(total=3)
        emitter.finish(done=3)
        rendered = stream.getvalue()
        assert rendered.count("\r") == 2  # one rewrite per event
        assert rendered.endswith("\n")  # close() leaves the cursor clean

    def test_events_are_flushed_per_line_as_json(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, clock=FakeClock())
        emitter.start(total=5)
        # readable before close: a killed sweep still leaves its event log
        (line,) = path.read_text().splitlines()
        event = json.loads(line)
        assert event["event"] == "start" and event["total"] == 5
        emitter.finish(done=5)

    def test_read_progress_events_skips_a_torn_line(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text('{"event": "start", "total": 2}\n{"event": "hear')
        events = read_progress_events(path)
        assert len(events) == 1 and events[0]["event"] == "start"

    def test_null_emitter_is_inert(self):
        assert isinstance(NULL_PROGRESS, NullProgressEmitter)
        NULL_PROGRESS.start(total=5)
        NULL_PROGRESS.update(1, force=True)
        NULL_PROGRESS.finish(done=5)
        NULL_PROGRESS.close()
        assert NULL_PROGRESS.events == 0


def tiny_grid() -> GridSpec:
    return GridSpec(algorithms=("greedy", "proposal"), deltas=(3, 4))


class TestSweepProgress:
    def test_serial_final_event_matches_summary_exactly(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0)
        result = run_sweep(tiny_grid(), out_dir=out, progress=emitter)
        events = read_progress_events(path)
        assert events[0]["event"] == "start"
        final = events[-1]
        assert final["event"] == "final"
        summary = json.loads((out / "summary.json").read_text())
        assert final["done"] == summary["cells"] == len(result.rows)
        assert final["pending"] == 0 and final["failed"] == 0
        # serial heartbeats fire as each row lands
        assert sum(1 for e in events if e["event"] == "heartbeat") >= len(result.rows)

    def test_rows_are_byte_identical_with_and_without_progress(self, tmp_path):
        plain = run_sweep(tiny_grid())
        emitter = ProgressEmitter(path=tmp_path / "p.jsonl", interval=0.0)
        observed = run_sweep(tiny_grid(), progress=emitter)
        assert (
            json.dumps(plain.rows, sort_keys=True).encode()
            == json.dumps(observed.rows, sort_keys=True).encode()
        )

    def test_parallel_final_event_matches_summary_exactly(self, tmp_path):
        out = tmp_path / "out"
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.05)
        result = run_sweep(tiny_grid(), workers=2, out_dir=out, progress=emitter)
        final = read_progress_events(path)[-1]
        summary = json.loads((out / "summary.json").read_text())
        assert final["event"] == "final"
        assert final["done"] == summary["cells"] == len(result.rows)

    def test_resumed_cells_are_reported_on_the_start_event(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(tiny_grid(), out_dir=out)
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0)
        result = run_sweep(tiny_grid(), out_dir=out, resume=True, progress=emitter)
        events = read_progress_events(path)
        assert events[0]["resumed"] == len(result.rows)
        assert events[-1]["done"] == len(result.rows)

    def test_all_cells_failed_sweep_closes_with_exact_final_event(self, tmp_path):
        # a raise-worker fault matching every cell in every round exhausts
        # the restart budget with nothing computed: the lifecycle must end
        # in a `final` event (done == 0, failed == cells), not a bare
        # `aborted` — and exactly one terminal event overall
        plan = FaultPlan(
            faults=(Fault(kind="raise-worker", cell="*", attempt=None, times=10_000),)
        )
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0)
        with pytest.raises(CellExecutionError):
            run_sweep(
                tiny_grid(),
                out_dir=tmp_path / "out",
                faults=plan,
                progress=emitter,
            )
        events = read_progress_events(path)
        final = events[-1]
        assert final["event"] == "final"
        assert final["done"] == 0
        assert final["failed"] == final["total"] == 4
        terminal = [e for e in events if e["event"] in ("final", "aborted")]
        assert len(terminal) == 1

    def test_backend_start_failure_stops_the_monitor_and_aborts_the_stream(self, tmp_path):
        # a parallel backend that cannot acquire its workers: the sweep
        # raises, and must leave no polling thread behind and a closed
        # stream — in a long-running service each such job once leaked one
        class CannotStart(ProcessExecutor):
            def start(self, *args):
                raise OSError("no workers to start")

        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.05)
        with pytest.raises(OSError, match="no workers to start"):
            run_sweep(
                tiny_grid(), backend=CannotStart(), out_dir=tmp_path / "out", progress=emitter
            )
        alive = [t for t in threading.enumerate() if t.name == "sweep-progress"]
        assert alive == []
        assert read_progress_events(path)[-1]["event"] == "aborted"


class TestProgressMonitorClamp:
    def test_monitor_clamps_forged_duplicate_shard_line(self, tmp_path):
        # count_rows() counts raw non-empty lines, so a duplicated shard
        # line (a recovered worker double-flushing a cell) once inflated
        # heartbeats past the grid's cell total; the monitor now clamps
        from repro.engine import ResultStore
        from repro.engine.pool import _ProgressMonitor

        out = tmp_path / "out"
        result = run_sweep(tiny_grid(), out_dir=out)
        total = len(result.rows)
        shard = next(out.glob("shard-*.jsonl"))
        lines = shard.read_text(encoding="utf-8").splitlines()
        with shard.open("a", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n")  # the forged duplicate
        store = ResultStore(out)
        assert store.count_rows() == total + 1  # the raw count over-reports

        class RecordingEmitter:
            interval = 0.05

            def __init__(self):
                self.seen = []

            def update(self, done, **kwargs):
                self.seen.append(done)

        recorder = RecordingEmitter()
        _ProgressMonitor(recorder, store, total=total).tick()
        assert recorder.seen == [total]


class TestSweepProgressCLI:
    def test_bare_progress_flag_writes_into_out_dir(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "out"
        assert main(["sweep", "--smoke", "--out", str(out), "--progress"]) == 0
        events = read_progress_events(out / "progress.jsonl")
        summary = json.loads((out / "summary.json").read_text())
        assert events[-1]["event"] == "final"
        assert events[-1]["done"] == summary["cells"]
        assert "progress events:" in capsys.readouterr().out

    def test_explicit_progress_path_is_honoured(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "live.jsonl"
        code = main(
            ["sweep", "--algorithms", "greedy", "--deltas", "3", "--progress", str(path)]
        )
        assert code == 0
        events = read_progress_events(path)
        assert [events[0]["event"], events[-1]["event"]] == ["start", "final"]
        assert events[-1]["done"] == events[-1]["total"] == 1
