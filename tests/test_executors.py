"""Conformance suite for sweep executor backends (repro.engine.executors).

Every backend — ``inline``, ``process``, ``socket`` — must satisfy the same
contract: merged sweep rows serialise byte-identically to the serial
baseline, every fault kind is survived with byte-identical rows (the chaos
matrix), a torn result store resumes cleanly, and the progress stream's
``final`` event agrees with the persisted summary.  The suite is
parameterized so a fourth backend only needs a new entry in
``BACKEND_PARAMS``.
"""

from __future__ import annotations

import dataclasses
import json
import socket as socket_mod

import pytest

from repro.engine import Fault, FaultPlan, run_sweep, smoke_grid
from repro.engine.executors import (
    BACKENDS,
    ExecutionOptions,
    InlineExecutor,
    ProcessExecutor,
    ShardServer,
    SocketExecutor,
    SweepExecutor,
    as_executor,
    parse_hosts,
)
from repro.engine.faults import FAULT_KINDS

#: the conformance matrix: how each backend is driven through run_sweep
BACKEND_PARAMS = {
    "inline": {"backend": "inline", "workers": 1},
    "process": {"backend": "process", "workers": 2},
    "socket": {"backend": "socket", "workers": 2},
}


def rows_bytes(rows) -> str:
    return json.dumps(list(rows), sort_keys=True, default=str)


@pytest.fixture(scope="module")
def serial_baseline():
    """The fault-free serial smoke sweep every backend must reproduce."""
    result = run_sweep(smoke_grid(), workers=0, use_cache=False)
    return rows_bytes(result.rows), [row["key"] for row in result.rows]


@pytest.fixture(params=sorted(BACKEND_PARAMS))
def backend_opts(request):
    return dict(BACKEND_PARAMS[request.param])


class TestByteIdentity:
    def test_rows_byte_identical_to_serial(self, backend_opts, serial_baseline):
        base, _ = serial_baseline
        result = run_sweep(smoke_grid(), use_cache=False, **backend_opts)
        assert result.backend == backend_opts["backend"]
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
        run_sweep(smoke_grid(), out_dir=out, use_cache=False, **backend_opts)
        shard = next(p for p in sorted(out.glob("shard-*.jsonl")) if p.read_text())
        lines = shard.read_text().splitlines()
        # tear the final row mid-write, as a killed worker would leave it
        shard.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        result = run_sweep(
            smoke_grid(), out_dir=out, use_cache=False, resume=True, **backend_opts
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
            smoke_grid(), out_dir=out, use_cache=False, progress=emitter, **backend_opts
        )
        events = read_progress_events(path)
        assert events[0]["event"] == "start"
        final = events[-1]
        summary = json.loads((out / "summary.json").read_text())
        assert final["event"] == "final"
        assert final["done"] == summary["cells"] == len(result.rows)
        assert final["pending"] == 0 and final["failed"] == 0


class TestRegistry:
    def test_backend_registry_is_exactly_the_shipped_set(self):
        assert set(BACKENDS) == {"inline", "process", "socket"}
        assert set(BACKEND_PARAMS) == set(BACKENDS), (
            "a new backend must join the conformance matrix"
        )

    def test_default_resolution_keeps_historical_workers_behaviour(self):
        assert isinstance(as_executor(None, workers=0), InlineExecutor)
        assert isinstance(as_executor(None, workers=1), InlineExecutor)
        assert isinstance(as_executor(None, workers=2), ProcessExecutor)
        assert isinstance(as_executor("socket", workers=2), SocketExecutor)

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
        message = self.same_error_from_both_entry_points(backend="carrier-pigeon")
        assert message.startswith("unknown backend 'carrier-pigeon'")

    def test_socket_only_options_rejected_elsewhere(self):
        for backend, hosts in [
            ("inline", [("h", 1)]),
            (None, [("h", 1)]),
            (None, "h:1"),
            ("process", "h:1,h:2"),
        ]:
            message = self.same_error_from_both_entry_points(backend=backend, hosts=hosts)
            assert message == f"hosts only apply to the socket backend, not backend={backend!r}"


class TestCapabilities:
    def test_inline_capabilities(self):
        executor = InlineExecutor()
        assert not executor.parallel and not executor.separate_process

    def test_process_capabilities(self):
        executor = ProcessExecutor(workers=2)
        assert executor.parallel and executor.separate_process

    def test_socket_loopback_never_arms_real_sigkill(self):
        """Self-hosted loopback servers share our process: kill-worker must
        degrade to a raised InjectedWorkerError, not a real SIGKILL."""
        executor = SocketExecutor(workers=2)
        assert executor.parallel and not executor.separate_process

    def test_socket_external_hosts_are_separate_processes(self):
        for executor in (
            SocketExecutor(hosts=[("127.0.0.1", 7641), ("127.0.0.1", 7642)]),
            # a HOST:PORT spec is parsed once, by ExecutionOptions
            as_executor("socket", hosts="127.0.0.1:7641, 127.0.0.1:7642"),
        ):
            assert executor.separate_process
            assert executor.width == 2

    def test_base_executor_is_the_serial_contract(self):
        assert not SweepExecutor.parallel and not SweepExecutor.separate_process
        assert SweepExecutor.width == 1


class TestExecutionOptions:
    def test_defaults_validate(self):
        options = ExecutionOptions()
        assert options.workers == 1 and options.backend is None
        kwargs = options.engine_kwargs()
        assert kwargs["workers"] == 1 and "hosts" not in kwargs

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("workers", 0, "workers must be >= 1"),
            ("backend", "smoke-signals", "unknown backend"),
            ("cell_timeout", -1.0, "cell_timeout must be positive"),
            ("retries", -1, "retries must be >= 0"),
            ("max_restarts", -1, "max_restarts must be >= 0"),
            ("hosts", (("h", 1),), "hosts only apply to the socket backend"),
        ],
    )
    def test_bad_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExecutionOptions(**{field: value})

    def test_hosts_allowed_on_socket(self):
        options = ExecutionOptions(backend="socket", hosts=(("h", 7641),))
        assert options.engine_kwargs()["hosts"] == [("h", 7641)]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionOptions().workers = 4


class TestParseHosts:
    def test_string_tuple_and_none_forms(self):
        assert parse_hosts(None) == []
        assert parse_hosts("h1:7641, h2:7642") == [("h1", 7641), ("h2", 7642)]
        assert parse_hosts([("h1", 7641)]) == [("h1", 7641)]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="bad host spec"):
            parse_hosts("no-port")
        with pytest.raises(ValueError, match="bad port"):
            parse_hosts("h:seven")


class TestShardServerProtocol:
    def test_ping_and_max_requests(self):
        server = ShardServer()
        server.start()
        try:
            host, port = server.address
            with socket_mod.create_connection((host, port), timeout=5) as conn:
                fh = conn.makefile("rw", encoding="utf-8", newline="\n")
                fh.write(json.dumps({"op": "ping"}) + "\n")
                fh.flush()
                reply = json.loads(fh.readline())
            assert reply == {"ok": True, "result": "pong"}
        finally:
            server.stop()

    def test_external_host_round_trip(self, serial_baseline):
        """A sweep dispatched to explicitly-addressed servers — the two-host
        topology CI runs across real processes — stays byte-identical."""
        base, _ = serial_baseline
        servers = [ShardServer(), ShardServer()]
        for server in servers:
            server.start()
        try:
            hosts = [server.address for server in servers]
            result = run_sweep(
                smoke_grid(), backend="socket", hosts=hosts, use_cache=False
            )
            assert rows_bytes(result.rows) == base
            assert sum(server.requests_served for server in servers) >= 2
        finally:
            for server in servers:
                server.stop()
