"""Chaos tests: the sweep engine under deterministic fault injection.

The headline invariant — merged sweep rows serialise byte-identically to a
fault-free serial sweep — must hold under every fault class in
``repro.engine.faults``: worker kills, worker exceptions, shard truncation
and cell stalls past the watchdog, plus randomly sampled combinations over
a seeded matrix.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    CellExecutionError,
    Fault,
    FaultInjector,
    FaultPlan,
    run_sweep,
    smoke_grid,
    verify_store,
)
from repro.engine.faults import InjectedWorkerError, active_injector, as_plan, use_faults
from repro.graphs.memo import reset_memos
from repro.obs import Tracer, trace_document, use_tracer

def rows_bytes(rows) -> str:
    return json.dumps(rows, sort_keys=True, default=str)


@pytest.fixture(scope="module")
def baseline():
    """The fault-free serial smoke sweep every chaos run must reproduce."""
    result = run_sweep(smoke_grid(), workers=0)
    return rows_bytes(result.rows), [row["key"] for row in result.rows]


class TestFaultPlan:
    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            faults=(
                Fault(kind="kill-worker", cell="greedy/d3/ec/s0"),
                Fault(kind="truncate-shard", cell="proposal/d4/ec/s0", offset=-3),
            ),
            seed=11,
            note="roundtrip",
        )
        path = plan.dump(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="set-on-fire")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault fields"):
            Fault.from_dict({"kind": "kill-worker", "blast_radius": 3})

    def test_cache_fault_fields_rejected(self):
        # the fields of the deleted cache fault kinds, as older plans carry them
        with pytest.raises(ValueError, match=r"unknown fault fields \['key', 'length', 'op'\]"):
            Fault.from_dict({"kind": "kill-worker", "key": "*", "op": "*", "length": 0})

    def test_foreign_format_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan format"):
            FaultPlan.from_dict({"format": "somebody-elses-plan", "faults": []})

    def test_sample_is_deterministic(self):
        keys = ["greedy/d3/ec/s0", "proposal/d4/ec/s0"]
        assert FaultPlan.sample(keys, seed=5) == FaultPlan.sample(keys, seed=5)
        assert FaultPlan.sample(keys, seed=5) != FaultPlan.sample(keys, seed=6)

    def test_sample_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            FaultPlan.sample([], seed=0)

    def test_as_plan_coercions(self, tmp_path):
        plan = FaultPlan(faults=(Fault(kind="raise-worker"),))
        assert as_plan(None) is None
        assert as_plan(plan) is plan
        assert as_plan(plan.as_dict()) == plan
        assert as_plan(plan.dump(tmp_path / "p.json")) == plan


class TestFaultInjector:
    def test_fires_at_most_times(self):
        plan = FaultPlan(faults=(Fault(kind="raise-worker", cell="*", attempt=None, times=1),))
        injector = FaultInjector(plan)
        with pytest.raises(InjectedWorkerError):
            injector.on_worker_cell("a/d3/ec/s0", 0)
        injector.on_worker_cell("a/d3/ec/s0", 1)  # spent: no second fire
        assert len(injector.report()) == 1

    def test_cell_pattern_must_match(self):
        plan = FaultPlan(faults=(Fault(kind="raise-worker", cell="greedy/d3/ec/s0"),))
        injector = FaultInjector(plan)
        injector.on_worker_cell("proposal/d3/ec/s0", 0)  # no match, no fire
        with pytest.raises(InjectedWorkerError):
            injector.on_worker_cell("greedy/d3/ec/s0", 0)

    def test_restart_round_anchoring(self):
        """A round-0 kill does not fire again during the recovery round."""
        plan = FaultPlan(faults=(Fault(kind="kill-worker", cell="*", attempt=0, times=5),))
        injector = FaultInjector(plan)  # in_worker=False degrades to raise
        with pytest.raises(InjectedWorkerError):
            injector.on_worker_cell("x/d3/ec/s0", 0)
        injector.on_worker_cell("x/d3/ec/s0", 1)  # round 1: anchored away

    def test_fires_are_counted_on_the_tracer(self):
        tracer = Tracer()
        plan = FaultPlan(faults=(Fault(kind="raise-worker"),))
        with use_tracer(tracer):
            injector = FaultInjector(plan)
            with pytest.raises(InjectedWorkerError):
                injector.on_worker_cell("x/d3/ec/s0", 0)
        counters = {
            (c["name"], c["labels"].get("kind")): c["value"]
            for c in tracer.metrics.snapshot()["counters"]
        }
        assert counters[("engine.fault", "raise-worker")] == 1

    def test_use_faults_none_is_a_noop(self):
        with use_faults(None) as installed:
            assert installed is None
            assert active_injector() is None


class TestChaosInvariant:
    """Every fault class: the sweep completes and rows match the baseline."""

    def test_kill_worker_sigkill(self, tmp_path, baseline):
        base, keys = baseline
        plan = FaultPlan(faults=(Fault(kind="kill-worker", cell=keys[2]),))
        result = run_sweep(
            smoke_grid(), workers=2, out_dir=tmp_path / "out", faults=plan
        )
        assert rows_bytes(result.rows) == base
        assert result.recovery["restarts"] >= 1
        assert result.recovery["worker_losses"] >= 1

    def test_raise_worker_serial(self, baseline):
        base, keys = baseline
        plan = FaultPlan(faults=(Fault(kind="raise-worker", cell=keys[1]),))
        result = run_sweep(smoke_grid(), workers=0, faults=plan)
        assert rows_bytes(result.rows) == base
        assert result.recovery["restarts"] == 1

    def test_shard_truncation_plus_worker_loss(self, tmp_path, baseline):
        """A torn shard row and a dead worker in the same sweep both heal."""
        base, keys = baseline
        plan = FaultPlan(
            faults=(
                Fault(kind="truncate-shard", cell=keys[1], offset=-5),
                Fault(kind="kill-worker", cell=keys[3]),
            )
        )
        result = run_sweep(
            smoke_grid(), workers=2, out_dir=tmp_path / "out", faults=plan
        )
        assert rows_bytes(result.rows) == base

    def test_cell_stall_hits_watchdog_and_retries(self, baseline):
        base, keys = baseline
        plan = FaultPlan(faults=(Fault(kind="stall-cell", cell=keys[0], seconds=0.6, attempt=0),))
        result = run_sweep(
            smoke_grid(), workers=0, faults=plan,
            cell_timeout=0.2, retries=1,
        )
        assert rows_bytes(result.rows) == base
        # shard-local counters are merged into the sweep's trace document
        counters = {c["name"]: c["value"] for c in result.trace["metrics"]["counters"]}
        assert counters["engine.cell_timeout"] == 1
        assert counters["engine.cell_retry"] == 1
        assert counters["engine.fault"] == 1

    def test_watchdogged_cells_keep_their_counters(self):
        """A cell under the watchdog runs against a private tracer; its
        counters must reach the sweep's trace like an unwatched cell's."""

        def counters(cell_timeout):
            reset_memos()
            result = run_sweep(smoke_grid(), workers=0, cell_timeout=cell_timeout)
            return result.trace["metrics"]["counters"]

        unwatched = counters(None)
        assert {c["name"] for c in unwatched} >= {
            "adversary.checked_runs", "adversary.run_memo", "adversary.steps"
        }
        assert counters(60) == unwatched

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_fault_matrix(self, tmp_path, baseline, seed):
        """Seeded random fault combinations: the sweep always recovers."""
        base, keys = baseline
        plan = FaultPlan.sample(keys, seed=seed)
        result = run_sweep(
            smoke_grid(),
            workers=2,
            out_dir=tmp_path / f"out{seed}",
            faults=plan,
        )
        assert rows_bytes(result.rows) == base


class TestFailureReporting:
    def test_unsurvivable_fault_names_the_cell(self, tmp_path, baseline):
        """A fault that outlives every restart raises a *named* error and
        records the failed cell in summary.json (not a bare pool teardown)."""
        _, keys = baseline
        plan = FaultPlan(
            faults=(Fault(kind="raise-worker", cell=keys[0], attempt=None, times=99),)
        )
        out = tmp_path / "out"
        with pytest.raises(CellExecutionError) as excinfo:
            run_sweep(
                smoke_grid(), workers=0, out_dir=out,
                faults=plan, max_restarts=1,
            )
        assert keys[0] in str(excinfo.value)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed"], "summary.json must record the failed cells"
        assert any(record["key"] == keys[0] for record in summary["failed"])
        # the healthy cells the failing shard did not block are persisted
        assert summary["recovery"]["restarts"] == 1

    def test_cell_execution_error_survives_pickling(self):
        import pickle

        err = CellExecutionError("g/d3/ec/s0", "greedy", 3, "ec", 0, "ValueError: boom")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.key == err.key
        assert clone.as_record() == err.as_record()
        assert "greedy" in str(clone) and "g/d3/ec/s0" in str(clone)


class TestVerifyStore:
    def test_clean_store_verifies(self, tmp_path, baseline):
        base, _ = baseline
        out = tmp_path / "out"
        run_sweep(smoke_grid(), workers=0, out_dir=out)
        report = verify_store(out)
        assert report["cells"] == 4
        assert report["matched"] == 4
        assert report["mismatched"] == []
        assert report["summary_consistent"] is True

    def test_recomputes_every_cell_past_the_run_memo(self, tmp_path):
        """The sweep just run left every verdict in the run memo; the check
        must not take them on trust."""
        out = tmp_path / "out"
        reset_memos()
        run_sweep(smoke_grid(), workers=0, out_dir=out)
        tracer = Tracer()
        with use_tracer(tracer):
            report = verify_store(out)
        assert report["matched"] == 4
        assert len(tracer.find("adversary.run")) == 4
        counters = {row["name"] for row in trace_document(tracer)["metrics"]["counters"]}
        assert "adversary.run_memo" not in counters

    def test_tampered_row_detected(self, tmp_path):
        out = tmp_path / "out"
        run_sweep(smoke_grid(), workers=0, out_dir=out)
        shard = out / "shard-0.jsonl"
        lines = shard.read_text().splitlines()
        tampered = json.loads(lines[0])
        tampered["witness_depth"] = 99
        lines[0] = json.dumps(tampered, sort_keys=True)
        shard.write_text("\n".join(lines) + "\n")
        report = verify_store(out)
        assert len(report["mismatched"]) == 1
        assert report["mismatched"][0]["key"] == tampered["key"]

