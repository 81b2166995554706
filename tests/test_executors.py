"""Conformance suite for sweep executor backends (repro.engine.executors).

Both backends — ``inline`` and ``process``, picked by ``workers`` — must
satisfy the same contract: merged sweep rows serialise byte-identically to
the serial baseline, every fault kind is survived with byte-identical rows
(the chaos matrix), a torn result store resumes cleanly, and the progress
stream's ``final`` event agrees with the persisted summary.  The suite is
parameterized so a new backend only needs a new entry in
``BACKEND_PARAMS``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import sys
import types

import pytest

from repro.engine import (
    Fault,
    FaultPlan,
    GridSpec,
    e1_grid,
    expand,
    run_sweep,
    smoke_grid,
)
from repro.engine.executors import (
    ExecutionOptions,
    InlineExecutor,
    ProcessExecutor,
    SweepExecutor,
    as_executor,
    shard_cells,
)
from repro.engine.faults import FAULT_KINDS
from repro.graphs.memo import reset_memos

#: the conformance matrix: the run_sweep options that pick each backend
BACKEND_PARAMS = {
    "inline": {"workers": 1},
    "process": {"workers": 2},
}


#: two seeds of each family: every replica can hit the run memo
REPLICA_GRID = GridSpec(("greedy", "proposal"), (3, 4), seeds=(0, 1))

#: the grid of the benchmark's two-worker workload (its seeds are 1 and 2)
LADDER_W2_GRID = GridSpec(("greedy", "proposal"), (13,), seeds=(1, 2))


def rows_bytes(rows) -> str:
    return json.dumps(list(rows), sort_keys=True, default=str)


def run_memo_hits(trace: dict) -> int:
    """The ``adversary.run_memo`` hits a (merged) trace document counted."""
    return sum(
        row["value"]
        for row in trace["metrics"]["counters"]
        if row["name"] == "adversary.run_memo"
        and row.get("labels", {}).get("outcome") == "hit"
    )


@pytest.fixture(scope="module")
def serial_baseline():
    """The fault-free serial smoke sweep every backend must reproduce."""
    result = run_sweep(smoke_grid(), workers=0)
    return rows_bytes(result.rows), [row["key"] for row in result.rows]


@pytest.fixture(scope="module")
def replica_baseline():
    """The serial replica sweep from empty memos: rows and run-memo hits."""
    reset_memos()
    result = run_sweep(REPLICA_GRID, workers=0)
    hits = run_memo_hits(result.trace)
    assert hits > 0, "serial replicas never hit the run memo"
    return rows_bytes(result.rows), hits


@pytest.fixture(params=sorted(BACKEND_PARAMS))
def backend_opts(request):
    return dict(BACKEND_PARAMS[request.param])


class TestByteIdentity:
    def test_rows_byte_identical_to_serial(self, backend_opts, serial_baseline):
        base, _ = serial_baseline
        result = run_sweep(smoke_grid(), **backend_opts)
        assert BACKEND_PARAMS[result.backend] == backend_opts
        assert rows_bytes(result.rows) == base

    def test_rows_identical_with_store_and_cache(
        self, backend_opts, serial_baseline, tmp_path
    ):
        base, _ = serial_baseline
        result = run_sweep(
            smoke_grid(),
            out_dir=tmp_path / "out",
            **backend_opts,
        )
        assert rows_bytes(result.rows) == base
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["cells"] == len(result.rows)

    def test_replica_seeds_hit_the_run_memo(self, backend_opts, replica_baseline):
        """Every seed of a family runs in one process, so each replica is
        answered by the run memo there, as it is in a serial sweep."""
        base, hits = replica_baseline
        reset_memos()
        result = run_sweep(REPLICA_GRID, **backend_opts)
        assert rows_bytes(result.rows) == base
        assert run_memo_hits(result.trace) == hits


def families(shard):
    return {(cell.algorithm, cell.delta, cell.chain) for cell in shard}


class TestShardSplit:
    """The driver's memo-affinity split: pure functions, nothing spawned."""

    @pytest.mark.parametrize(
        "grid", [smoke_grid(), e1_grid(), LADDER_W2_GRID, REPLICA_GRID],
        ids=["smoke", "e1", "ladder-w2", "replicas"],
    )
    def test_one_shard_is_the_expanded_grid(self, grid):
        cells = expand(grid)
        assert shard_cells(cells, 1) == [cells]

    def test_every_seed_of_a_family_shares_a_shard(self):
        cells = expand(GridSpec(("greedy", "proposal"), (3, 4, 5), seeds=(0, 1, 2)))
        for width in (2, 3, 4):
            shards = shard_cells(cells, width)
            for index, shard in enumerate(shards):
                others = [cell for other in shards[index + 1:] for cell in other]
                assert not families(shard) & families(others)

    def test_ladder_w2_gives_each_worker_one_family(self):
        greedy, proposal = shard_cells(expand(LADDER_W2_GRID), 2)
        assert families(greedy) == {("greedy", 13, "ec")} and len(greedy) == 2
        assert families(proposal) == {("proposal", 13, "ec")} and len(proposal) == 2

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec(("zero",), (5,), seeds=(0, 1)),
            GridSpec(("proposal",), (4,), ("po",), seeds=(0, 1)),
        ],
        ids=["zero", "proposal-po"],
    )
    def test_every_family_is_one_unit(self, grid):
        cells = expand(grid)
        assert len(cells) == 2
        assert shard_cells(cells, 2) == [cells]

    @pytest.mark.parametrize("grid", [smoke_grid(), e1_grid()], ids=["smoke", "e1"])
    def test_one_seed_per_family_deals_the_cells_round_robin(self, grid):
        cells = expand(grid)
        for width in (2, 3, 4):
            assert shard_cells(cells, width) == [cells[i::width] for i in range(width)]

    def test_no_empty_shard_and_no_more_shards_than_units(self):
        cells = expand(REPLICA_GRID)  # four families, two seeds each
        for width in (1, 2, 3, 4, 8):
            shards = shard_cells(cells, width)
            assert len(shards) == min(width, 4)
            assert all(shards)
            assert all(shard == sorted(shard) for shard in shards)
            assert sorted(cell for shard in shards for cell in shard) == cells
        assert shard_cells([], 2) == []

    def test_shuffled_input_gives_the_same_split(self):
        cells = expand(GridSpec(("greedy", "proposal", "zero"), (3, 4, 5, 6), seeds=(0, 1)))
        shuffled = list(cells)
        random.Random(7).shuffle(shuffled)
        for width in (1, 2, 3, 5):
            assert shard_cells(shuffled, width) == shard_cells(cells, width)


class TestChaosMatrix:
    """The PR 5 chaos contract, now parameterized over every backend."""

    def test_all_declared_fault_kinds_in_one_sweep(
        self, backend_opts, serial_baseline, tmp_path
    ):
        """One sweep hit by every fault kind there is."""
        base, keys = serial_baseline
        plan = FaultPlan(
            faults=(
                Fault(kind="raise-worker", cell=keys[0]),
                Fault(kind="stall-cell", cell=keys[1], seconds=0.5, attempt=0),
                Fault(kind="kill-worker", cell=keys[2]),
                Fault(kind="truncate-shard", cell=keys[3], offset=-5),
            )
        )
        assert {fault.kind for fault in plan.faults} == set(FAULT_KINDS)
        result = run_sweep(
            smoke_grid(),
            out_dir=tmp_path / "out",
            faults=plan,
            cell_timeout=0.2,
            retries=1,
            **backend_opts,
        )
        assert rows_bytes(result.rows) == base
        assert result.recovery["restarts"] >= 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_fault_matrix(self, backend_opts, serial_baseline, tmp_path, seed):
        base, keys = serial_baseline
        plan = FaultPlan.sample(keys, seed=seed)
        result = run_sweep(
            smoke_grid(),
            out_dir=tmp_path / f"out{seed}",
            faults=plan,
            **backend_opts,
        )
        assert rows_bytes(result.rows) == base


class TestTornStoreResume:
    def test_torn_shard_line_recomputed_on_resume(
        self, backend_opts, serial_baseline, tmp_path
    ):
        base, _ = serial_baseline
        out = tmp_path / "out"
        run_sweep(smoke_grid(), out_dir=out, **backend_opts)
        shard = next(p for p in sorted(out.glob("shard-*.jsonl")) if p.read_text())
        lines = shard.read_text().splitlines()
        # tear the final row mid-write, as a killed worker would leave it
        shard.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        result = run_sweep(
            smoke_grid(), out_dir=out, resume=True, **backend_opts
        )
        assert rows_bytes(result.rows) == base
        assert result.resumed == len(result.rows) - 1


class TestProgressConformance:
    def test_final_event_matches_summary(self, backend_opts, tmp_path):
        from repro.obs.progress import ProgressEmitter, read_progress_events

        out = tmp_path / "out"
        path = tmp_path / "progress.jsonl"
        emitter = ProgressEmitter(path=path, interval=0.0)
        result = run_sweep(
            smoke_grid(), out_dir=out, progress=emitter, **backend_opts
        )
        events = read_progress_events(path)
        assert events[0]["event"] == "start"
        final = events[-1]
        summary = json.loads((out / "summary.json").read_text())
        assert final["event"] == "final"
        assert final["done"] == summary["cells"] == len(result.rows)
        assert final["pending"] == 0 and final["failed"] == 0


class TestRegistry:
    """How a sweep gets its executor: ``workers`` picks one, or an
    instance is passed in."""

    def test_backend_registry_is_exactly_the_shipped_set(self):
        import repro.engine.executors as executors

        shipped = {
            value.name
            for value in vars(executors).values()
            if isinstance(value, type) and issubclass(value, SweepExecutor)
            and value is not SweepExecutor
        }
        assert shipped == set(BACKEND_PARAMS), (
            "a new backend must join the conformance matrix"
        )
        for name, options in BACKEND_PARAMS.items():
            assert as_executor(None, **options).name == name

    def test_default_resolution_keeps_historical_workers_behaviour(self):
        assert isinstance(as_executor(None, workers=0), InlineExecutor)
        assert isinstance(as_executor(None, workers=1), InlineExecutor)
        assert isinstance(as_executor(None, workers=2), ProcessExecutor)
        assert as_executor(None, workers=3).width == 3

    def test_executor_instances_pass_through(self):
        executor = InlineExecutor()
        assert as_executor(executor) is executor

    @staticmethod
    def same_error_from_both_entry_points(**options) -> str:
        """The message ``as_executor`` and ``run_sweep`` both raise."""
        with pytest.raises(ValueError) as direct:
            as_executor(**options)
        with pytest.raises(ValueError) as swept:
            run_sweep(smoke_grid(), **options)
        assert str(swept.value) == str(direct.value)
        return str(direct.value)

    def test_unknown_backend_rejected(self):
        for name in ("carrier-pigeon", "process"):
            message = self.same_error_from_both_entry_points(backend=name)
            assert message.startswith(f"unknown backend {name!r}")
            assert "\n" not in message


class TestCapabilities:
    def test_inline_capabilities(self):
        executor = InlineExecutor()
        assert not executor.parallel

    def test_process_capabilities(self):
        executor = ProcessExecutor(workers=2)
        assert executor.parallel and executor.width == 2

    def test_base_executor_is_the_serial_contract(self):
        assert not SweepExecutor.parallel
        assert SweepExecutor.width == 1


def fake_main(**attributes) -> types.ModuleType:
    module = types.ModuleType("__main__")
    module.__spec__ = None
    for name, value in attributes.items():
        setattr(module, name, value)
    return module


class TestProcessStart:
    """A spawned worker first re-runs the parent's ``__main__``."""

    def test_stdin_main_refused_before_any_worker_starts(self, monkeypatch):
        # every worker of a script piped on stdin died at start-up, and the
        # sweep reported the pool as recovered worker losses
        monkeypatch.setitem(sys.modules, "__main__", fake_main(__file__="<stdin>"))
        with pytest.raises(ValueError) as refused:
            run_sweep(smoke_grid(), workers=2)
        message = str(refused.value)
        assert "<stdin>" in message and "\n" not in message
        assert message.endswith("run the script from a file, or use workers=1")
        assert multiprocessing.active_children() == []

    def test_mains_a_worker_can_rerun_start(self, monkeypatch, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("")
        origin = multiprocessing.process.ORIGINAL_DIR
        for main in (
            fake_main(),  # python -c, or an interactive session
            fake_main(__file__=str(script)),
            fake_main(__file__=os.path.relpath(script, origin)),
            # python -m: imported by name, whatever its __file__ says
            fake_main(__file__="<stdin>", __spec__=types.SimpleNamespace(name="pkg.__main__")),
        ):
            monkeypatch.setitem(sys.modules, "__main__", main)
            ProcessExecutor().start()


class TestExecutionOptions:
    def test_defaults_validate(self):
        options = ExecutionOptions()
        assert options.engine_kwargs() == {
            "workers": 1, "cell_timeout": None, "retries": 1, "max_restarts": 2,
        }

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("workers", 0, "workers must be >= 1"),
            ("cell_timeout", -1.0, "cell_timeout must be positive"),
            ("retries", -1, "retries must be >= 0"),
            ("max_restarts", -1, "max_restarts must be >= 0"),
        ],
    )
    def test_bad_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExecutionOptions(**{field: value})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionOptions().workers = 4
