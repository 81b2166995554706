"""Tests for the sweep-as-a-service job API (repro.service)."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro import api
from repro.engine import GridSpec, smoke_grid
from repro.graphs.memo import RUNS, reset_memos
from repro.obs.progress import read_progress_events
from repro.service import (
    Backpressure,
    ServiceConfig,
    ServiceServer,
    SweepService,
    TokenBucket,
)
from repro.service.jobs import validate_tenant
from tests.test_golden import run_memo_counts


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def tiny_grid() -> dict:
    return {"algorithms": ["greedy"], "deltas": [3]}


def make_service(tmp_path, **overrides) -> SweepService:
    defaults = dict(data_dir=tmp_path / "data", progress_interval=0.0)
    defaults.update(overrides)
    return SweepService(ServiceConfig(**defaults))


def wait_for(predicate, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError("condition not reached in time")


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(1.0)
        clock.now += 0.25
        assert bucket.acquire() == pytest.approx(0.75)
        clock.now += 1.0
        assert bucket.acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=1, clock=clock)
        clock.now += 1000.0
        assert bucket.acquire() == 0.0
        assert bucket.acquire() > 0.0

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestServiceConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("queue_size", 0),
            ("queue_size", -3),
            ("job_workers", 0),
            ("job_workers", -2),
            ("rate", -1.0),
            ("burst", 0),
            ("progress_interval", -0.5),
        ],
    )
    def test_meaningless_sizes_rejected(self, tmp_path, field, value):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(data_dir=tmp_path, **{field: value})

    def test_bad_default_tenant_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="invalid tenant"):
            ServiceConfig(data_dir=tmp_path, default_tenant="../x")


class TestSubmission:
    def test_submit_validates_grid_and_tenant(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ValueError):
            service.submit({"algorithms": ["no-such-algorithm"]})
        with pytest.raises(ValueError):
            service.submit(tiny_grid(), tenant="../escape")

    def test_bad_tenant_name_rejected(self):
        for name in ("", "-x", "../escape", "a/b", ".hidden", "x" * 65):
            with pytest.raises(ValueError, match="invalid tenant"):
                validate_tenant(name)
        assert validate_tenant("alice.b-2_c") == "alice.b-2_c"

    def test_submit_counts_cells_and_assigns_ids(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(smoke_grid(), tenant="alice")
        assert job.id == "job-000001"
        assert job.state == "queued" and job.cells == 4
        second = service.submit(tiny_grid())
        assert second.id == "job-000002"
        assert second.tenant == "public"  # the default tenant
        assert [j.id for j in service.jobs(tenant="alice")] == [job.id]

    def test_submit_counts_each_cell_once_and_rejects_empty_grids(self, tmp_path):
        service = make_service(tmp_path)
        assert service.submit({"algorithms": ["greedy"], "deltas": [3, 3]}).cells == 1
        with pytest.raises(ValueError, match="grid axis 'deltas' is empty"):
            service.submit({"deltas": []})

    def test_queue_full_raises_backpressure(self, tmp_path):
        service = make_service(tmp_path, queue_size=1)  # workers never started
        service.submit(tiny_grid())
        with pytest.raises(Backpressure) as info:
            service.submit(tiny_grid())
        assert info.value.retry_after > 0

    def test_rate_limit_raises_backpressure_per_tenant(self, tmp_path):
        service = make_service(tmp_path, rate=0.001, burst=1, queue_size=100)
        service.submit(tiny_grid(), tenant="alice")
        with pytest.raises(Backpressure) as info:
            service.submit(tiny_grid(), tenant="alice")
        assert info.value.retry_after > 0
        # an independent tenant still has its own burst
        service.submit(tiny_grid(), tenant="bob")


class TestJobLifecycle:
    def test_job_runs_to_done_with_progress_and_rows(self, tmp_path):
        service = make_service(tmp_path)
        job = service.submit(tiny_grid(), tenant="alice")
        service.start()
        try:
            wait_for(lambda: job.state in ("done", "failed"))
        finally:
            service.stop()
        assert job.state == "done", job.error
        assert job.rows == job.cells == 1
        assert job.cache is not None and {"hits", "misses"} <= set(job.cache)
        rows = service.rows(job.id)
        serial = api.sweep(GridSpec.from_mapping(tiny_grid()))
        assert json.dumps(rows, sort_keys=True) == json.dumps(
            [dict(r) for r in serial.rows], sort_keys=True
        )
        progress = service.progress(job.id)
        kinds = [event["event"] for event in progress["events"]]
        assert kinds[0] == "start" and kinds[-1] == "final"
        # incremental tailing from an offset
        tail = service.progress(job.id, offset=progress["offset"])
        assert tail["events"] == []

    def test_failed_job_records_error(self, tmp_path):
        service = make_service(tmp_path)
        faults = {
            "format": "repro-fault-plan-v1",
            "faults": [
                {"kind": "raise-worker", "cell": "*", "attempt": None, "times": 10_000}
            ],
        }
        job = service.submit(tiny_grid(), faults=faults)
        service.start()
        try:
            wait_for(lambda: job.state in ("done", "failed"))
        finally:
            service.stop()
        assert job.state == "failed"
        assert "CellExecutionError" in job.error
        assert service.rows(job.id) is None

    def test_cancel_queued_job_never_runs(self, tmp_path):
        service = make_service(tmp_path)  # not started: stays queued
        job = service.submit(tiny_grid())
        assert service.cancel(job.id) is True
        assert job.state == "cancelled"
        service.start()
        service.stop()
        assert job.state == "cancelled"
        assert not (job.directory / "progress.jsonl").exists()
        # cancelling again is a settled no-op
        assert service.cancel(job.id) is False

    def test_cancel_mid_stream_flushes_aborted_exactly_once(self, tmp_path):
        # deterministic mid-stream cancel: the flag is set before the
        # worker picks the job up, so the sweep opens its event log, emits
        # `start`, and aborts at the first cancellation checkpoint — the
        # emitter must flush exactly one `aborted` event on the way out
        service = make_service(tmp_path)
        job = service.submit(smoke_grid(), tenant="alice")
        job.cancel.set()
        service.start()
        try:
            wait_for(lambda: job.state != "queued" and job.state != "running")
        finally:
            service.stop()
        assert job.state == "cancelled"
        events = read_progress_events(job.directory / "progress.jsonl")
        kinds = [event["event"] for event in events]
        assert kinds[0] == "start"
        assert kinds.count("aborted") == 1
        assert kinds[-1] == "aborted"
        assert "final" not in kinds


class TestConcurrentJobs:
    def test_job_threads_compute_each_form_once(self, tmp_path):
        # four job threads drain eight jobs from four tenants: every job
        # reproduces the serial rows, and the shared plan cache builds each
        # root shape once, whichever thread asks first
        reset_memos()
        serial = api.sweep(smoke_grid())
        baseline = json.dumps([dict(r) for r in serial.rows], sort_keys=True)
        reset_memos()
        service = make_service(tmp_path, job_workers=4)
        tenants = ("alice", "bob", "carol", "dave")
        jobs = [service.submit(smoke_grid(), tenant=tenants[i % 4]) for i in range(8)]
        service.start()
        try:
            wait_for(lambda: all(job.state in ("done", "failed") for job in jobs))
        finally:
            service.stop()
        assert [job.state for job in jobs] == ["done"] * 8, [job.error for job in jobs]
        for job in jobs:
            assert json.dumps(service.rows(job.id), sort_keys=True) == baseline
        assert sum(job.cache["misses"] for job in jobs) == serial.cache.misses > 0


class TestStats:
    def test_latency_histograms_count_finished_jobs(self, tmp_path):
        reset_memos()
        service = make_service(tmp_path)
        jobs = [service.submit(tiny_grid(), tenant="alice") for _ in range(3)]
        service.start()
        try:
            wait_for(lambda: all(job.state in ("done", "failed") for job in jobs))
        finally:
            service.stop()
        assert [job.state for job in jobs] == ["done"] * 3
        stats = service.stats()
        for name in ("queue_wait_s", "run_s"):
            summary = stats[name]
            assert summary["count"] == len(jobs)
            assert 0 <= summary["p50"] <= summary["p95"] <= summary["max"]
        # the run memo answered the warm jobs: their one cell, stored once
        assert stats["memory_tier"] == {"entries": 1, "limit": RUNS.limit, "evictions": 0}

    def test_memory_tier_sums_the_jobs_run_memo_evictions(self, tmp_path, monkeypatch):
        reset_memos()
        monkeypatch.setattr(RUNS, "limit", 1)
        service = make_service(tmp_path, job_workers=1)  # alice's job runs first
        jobs = [
            service.submit({"algorithms": ["greedy"], "deltas": [3, 4]}, tenant="alice"),
            service.submit({"algorithms": ["greedy"], "deltas": [3]}, tenant="bob"),
        ]
        service.start()
        try:
            wait_for(lambda: all(job.state in ("done", "failed") for job in jobs))
        finally:
            service.stop()
        assert [job.state for job in jobs] == ["done"] * 2
        # Δ 4 pushes Δ 3 out of the one-entry memo, and bob's Δ 3, computed
        # again, pushes Δ 4 out
        assert service.stats()["memory_tier"] == {"entries": 1, "limit": 1, "evictions": 2}

    def test_rejections_counted_by_reason(self, tmp_path):
        service = make_service(tmp_path, queue_size=1, rate=0.001, burst=1)
        service.submit(tiny_grid(), tenant="alice")
        with pytest.raises(Backpressure):
            service.submit(tiny_grid(), tenant="alice")  # alice's bucket is empty
        with pytest.raises(Backpressure):
            service.submit(tiny_grid(), tenant="bob")  # the queue is full
        assert service.stats()["rejected"] == {"queue_full": 1, "rate_limited": 1}

    def test_empty_histograms_report_no_percentiles(self, tmp_path):
        stats = make_service(tmp_path).stats()
        assert stats["run_s"] == {"count": 0, "p50": None, "p95": None, "max": None}


class TestHTTPService:
    @pytest.fixture()
    def server(self, tmp_path):
        service = make_service(tmp_path)
        server = ServiceServer(service)
        server.start()
        yield server
        server.stop()

    @staticmethod
    def request(server, method, path, body=None, headers=None):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers=headers or {},
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            return response.status, dict(response.getheaders()), payload
        finally:
            conn.close()

    @classmethod
    def run_job(cls, server, grid, tenant):
        """Submit ``grid`` as ``tenant``; returns the done job and its rows."""
        status, _, job = cls.request(
            server, "POST", "/v1/jobs", {"grid": grid, "tenant": tenant}
        )
        assert status == 202, job

        def settled():
            job.update(cls.request(server, "GET", f"/v1/jobs/{job['id']}")[2])
            return job["state"] in ("done", "failed", "cancelled")

        wait_for(settled)
        assert job["state"] == "done", job["error"]
        status, _, rows = cls.request(server, "GET", f"/v1/jobs/{job['id']}/rows")
        assert status == 200
        return job, json.dumps(rows["rows"], sort_keys=True)

    @staticmethod
    def raw_exchange(server, request: bytes, timeout: float = 2.0) -> bytes:
        """Send raw bytes and read until the server hangs up.

        A server that never answers or never closes fails the test with a
        socket timeout instead of hanging it.
        """
        with socket.create_connection(server.address, timeout=timeout) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)

    def test_two_concurrent_tenants_byte_identical_second_computes_nothing(self, server):
        # the acceptance scenario: the same smoke grid submitted by two
        # tenants concurrently over HTTP; both must reproduce the serial
        # CLI sweep byte-for-byte, and the run memo the first job filled
        # must have answered every cell of the later tenant's sweep
        grid = smoke_grid().as_dict()
        submitted = {}

        def submit(tenant):
            status, _, payload = self.request(
                server,
                "POST",
                "/v1/jobs",
                {"grid": grid},
                headers={"X-Repro-Tenant": tenant},
            )
            assert status == 202, payload
            submitted[tenant] = payload["id"]

        threads = [
            threading.Thread(target=submit, args=(tenant,))
            for tenant in ("alice", "bob")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert set(submitted) == {"alice", "bob"}

        def both_done():
            states = [
                self.request(server, "GET", f"/v1/jobs/{job_id}")[2]["state"]
                for job_id in submitted.values()
            ]
            assert "failed" not in states
            return all(state == "done" for state in states)

        wait_for(both_done)

        serial = api.sweep(smoke_grid())
        baseline = json.dumps([dict(r) for r in serial.rows], sort_keys=True)
        jobs = {}
        for tenant, job_id in submitted.items():
            status, _, rows_payload = self.request(
                server, "GET", f"/v1/jobs/{job_id}/rows"
            )
            assert status == 200
            assert json.dumps(rows_payload["rows"], sort_keys=True) == baseline
            jobs[tenant] = self.request(server, "GET", f"/v1/jobs/{job_id}")[2]

        # one worker thread drains the queue in order, so whichever job ran
        # second was answered by the run memo the first job filled: it
        # computed nothing, and looked no form up
        second = jobs[max(submitted, key=lambda t: submitted[t])]
        assert second["cache"]["misses"] == 0
        trace = json.loads(
            (server.service.jobs_dir / second["id"] / "trace.json").read_text()
        )
        assert run_memo_counts(trace) == {"hit": len(serial.rows)}  # one per cell

        # progress is streamable per job
        for job_id in submitted.values():
            _, _, progress = self.request(
                server, "GET", f"/v1/jobs/{job_id}/progress"
            )
            kinds = [event["event"] for event in progress["events"]]
            assert kinds[0] == "start" and kinds[-1] == "final"

    def test_health_stats_and_job_listing(self, server):
        status, _, health = self.request(server, "GET", "/v1/healthz")
        assert status == 200 and health["ok"] is True
        status, _, payload = self.request(
            server, "POST", "/v1/jobs", {"grid": tiny_grid(), "tenant": "alice"}
        )
        assert status == 202
        status, _, listing = self.request(server, "GET", "/v1/jobs?tenant=alice")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [payload["id"]]
        assert self.request(server, "GET", "/v1/jobs?tenant=nobody")[2]["jobs"] == []

    def test_error_paths(self, server):
        assert self.request(server, "GET", "/v1/jobs/job-999999")[0] == 404
        assert self.request(server, "GET", "/v1/nothing")[0] == 404
        assert self.request(server, "DELETE", "/v1/jobs/job-999999")[0] == 404
        status, _, payload = self.request(
            server, "POST", "/v1/jobs", {"grid": {"algorithms": ["bogus"]}}
        )
        assert status == 400 and "invalid submission" in payload["error"]
        status, _, payload = self.request(server, "POST", "/v1/jobs", {"grid": {"deltas": []}})
        assert status == 400 and "empty" in payload["error"]
        status, _, payload = self.request(
            server, "POST", "/v1/jobs", {"grid": tiny_grid(), "tenant": "../escape"}
        )
        assert status == 400

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_bad_content_length_is_400_and_closes(self, server, length):
        response = self.raw_exchange(
            server,
            b"POST /v1/jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: " + length + b"\r\n\r\n{}",
        )
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_negative_progress_offset_is_400(self, server):
        status, _, job = self.request(server, "POST", "/v1/jobs", {"grid": tiny_grid()})
        assert status == 202
        for offset in ("-1", "abc"):
            status, _, payload = self.request(
                server, "GET", f"/v1/jobs/{job['id']}/progress?offset={offset}"
            )
            assert status == 400 and "offset" in payload["error"]

    def test_keep_alive_requests_are_not_delayed(self, server):
        # Nagle's algorithm would hold each response body for the client's
        # delayed ACK, about 40 ms a request on one keep-alive connection
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f}s"

    def test_restart_continues_job_ids_and_reproduces_rows(self, tmp_path):
        grid = smoke_grid().as_dict()
        first = ServiceServer(make_service(tmp_path))
        first.start()
        try:
            alice, alice_rows = self.run_job(first, grid, "alice")
            bob, bob_rows = self.run_job(first, grid, "bob")
        finally:
            first.stop()
        reset_memos()  # the restarted server is a new process
        second = ServiceServer(make_service(tmp_path))
        second.start()
        try:
            carol, carol_rows = self.run_job(second, grid, "carol")
        finally:
            second.stop()
        assert carol["id"] not in (alice["id"], bob["id"])
        assert carol_rows == alice_rows == bob_rows

    def test_rows_conflict_until_done(self, tmp_path):
        service = make_service(tmp_path)  # workers never started: job stays queued
        server = ServiceServer(service)
        server._httpd.timeout = 5
        thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        thread.start()
        try:
            status, _, payload = self.request(
                server, "POST", "/v1/jobs", {"grid": tiny_grid()}
            )
            assert status == 202
            status, _, conflict = self.request(
                server, "GET", f"/v1/jobs/{payload['id']}/rows"
            )
            assert status == 409
            assert conflict["state"] == "queued"
            # DELETE cancels the queued job
            status, _, _ = self.request(
                server, "DELETE", f"/v1/jobs/{payload['id']}"
            )
            assert status == 202
            status, _, again = self.request(
                server, "DELETE", f"/v1/jobs/{payload['id']}"
            )
            assert status == 409 and again["state"] == "cancelled"
        finally:
            server._httpd.shutdown()
            server._httpd.server_close()
            thread.join(timeout=5)

    def test_backpressure_is_429_with_retry_after(self, tmp_path):
        service = make_service(tmp_path, queue_size=1)  # workers never started
        server = ServiceServer(service)
        thread = threading.Thread(target=server._httpd.serve_forever, daemon=True)
        thread.start()
        try:
            assert self.request(server, "POST", "/v1/jobs", {"grid": tiny_grid()})[0] == 202
            status, headers, payload = self.request(
                server, "POST", "/v1/jobs", {"grid": tiny_grid()}
            )
            assert status == 429
            assert "queue full" in payload["error"]
            assert payload["retry_after"] > 0
            assert int(headers["Retry-After"]) >= 1
        finally:
            server._httpd.shutdown()
            server._httpd.server_close()
            thread.join(timeout=5)
