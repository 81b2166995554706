"""The service workload: ``repro serve-api`` driven over loopback HTTP.

Each tenant is one closed loop on one keep-alive connection, as a client
library would hold it: submit a grid, poll the job until it is done, fetch
its rows, submit the next.  A job's latency runs from sending the POST to
seeing ``state == "done"``.  A refused (429) or failed job, or one whose
rows differ from the serial reference, counts as failed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from . import check, layers, spans
from .proc import CHILD_TIMEOUT, SETUP_SAMPLES, Context, bench_script, calibrate, stop
from .stats import min_samples, quantile
from .workloads import ServiceWorkload

#: a client waits a uniformly drawn pause of up to this before each poll;
#: the jitter keeps job latencies from bunching on whole request times
POLL_JITTER = 0.05
#: timed jobs a run needs so that ten lie beyond its p90
MIN_JOBS = min_samples(0.9)


class Server:
    """A ``repro serve-api`` process with its own data directory."""

    def __init__(self, ctx: Context, tag: str, traced: bool = False):
        self.data_dir = ctx.path(f"{tag}.data")
        self.spans_path = ctx.path(f"{tag}.spans.json")
        serve = ["serve-api", "--data-dir", self.data_dir, "--port", "0"]
        if traced:
            args = [bench_script("serve_child.py"), self.spans_path, *serve]
        else:
            args = ["-m", "repro", *serve]
        self._log_path = ctx.path(f"{tag}.log")
        self._log = open(self._log_path, "w", encoding="utf-8")
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            env=ctx.env,
            cwd=ctx.root,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_port(launched + CHILD_TIMEOUT / 3)
            self.client = Client(self.port, "healthz")
            self.client.await_health(launched + CHILD_TIMEOUT / 3)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - launched

    def _await_port(self, deadline: float) -> int:
        prefix = "sweep service listening on http://"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode}: {self.log()[-2000:]}")
            for line in self.log().splitlines():
                if line.startswith(prefix):
                    return int(line[len(prefix):].split("/")[0].rsplit(":", 1)[1])
            time.sleep(0.002)
        raise RuntimeError("server never printed its address")

    def log(self) -> str:
        with open(self._log_path, encoding="utf-8") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        """High-water RSS of the server process (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        stop(self.proc)
        self._log.close()


@dataclass
class JobResult:
    grid: dict
    latency: float
    state: str
    job_id: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    cache: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.state == "done" and not self.problems


class Client:
    """One tenant's keep-alive connection."""

    def __init__(self, port: int, tenant: str, seed: int = 0):
        self.tenant = tenant
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.request_s: List[float] = []
        self._rng = random.Random(f"refbench-poll:{seed}:{tenant}")

    def call(self, method: str, path: str, body: Optional[dict] = None):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self.request_s.append(time.perf_counter() - start)
        return response.status, json.loads(data)

    def await_health(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.call("GET", "/v1/healthz")
                if status == 200:
                    return
            except (ConnectionError, http.client.HTTPException):
                self.conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /v1/healthz")
            time.sleep(0.002)

    def job(self, grid: dict, templates: dict) -> JobResult:
        start = time.perf_counter()
        status, doc = self.call("POST", "/v1/jobs", {"grid": grid, "tenant": self.tenant})
        if status != 202:
            result = JobResult(grid, time.perf_counter() - start, f"http-{status}")
            result.problems.append(f"submission refused with {status}: {doc.get('error')}")
            time.sleep(float(doc.get("retry_after", 0.0)))
            return result
        job_id = doc["id"]
        while doc["state"] in ("queued", "running"):
            time.sleep(self._rng.uniform(0.0, POLL_JITTER))
            _, doc = self.call("GET", f"/v1/jobs/{job_id}")
        result = JobResult(grid, time.perf_counter() - start, doc["state"], job_id, cache=doc.get("cache"))
        if doc["state"] != "done":
            result.problems.append(f"job {job_id} ended {doc['state']}: {doc.get('error')}")
            return result
        status, body = self.call("GET", f"/v1/jobs/{job_id}/rows")
        if status != 200:
            result.problems.append(f"rows of {job_id} answered {status}")
        else:
            result.problems += check.check_job(body["rows"], grid, templates)
        return result

    def close(self) -> None:
        self.conn.close()


@dataclass
class Phase:
    """The timed part of one server's life."""

    jobs: List[JobResult]
    wall_s: float
    request_s: List[float]

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if not job.ok)

    @property
    def latencies(self) -> List[float]:
        return [job.latency for job in self.jobs]


def warm_up(server: Server, workload: ServiceWorkload, seed: int, templates: dict) -> List[JobResult]:
    """The untimed third tenant: every distinct cell of the schedule once."""
    client = Client(server.port, "warmup", seed)
    try:
        return [client.job(grid, templates) for grid in workload.warmup(seed)]
    finally:
        client.close()


def timed_phase(server: Server, workload: ServiceWorkload, seed: int, seconds: float, templates: dict) -> Phase:
    """Closed-loop tenants, one thread and one connection each, each
    working through its whole schedule."""
    rounds = workload.rounds(seconds, MIN_JOBS)
    finished: List[JobResult] = []
    clients = [Client(server.port, f"tenant-{i}", seed) for i in range(workload.tenants)]
    errors: List[BaseException] = []

    def loop(client: Client, jobs: List[dict]) -> None:
        try:
            for grid in jobs:
                finished.append(client.job(grid, templates))
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            errors.append(exc)

    threads = [
        threading.Thread(target=loop, args=(client, workload.schedule(seed, i, rounds)), daemon=True)
        for i, client in enumerate(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CHILD_TIMEOUT)
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a tenant never finished")
    return Phase(finished, wall, [t for c in clients for t in c.request_s])


class ServiceRun:
    """Attempted/failed accounting across the servers of one run."""

    def __init__(self, ctx: Context, workload: ServiceWorkload, seed: int):
        self.ctx = ctx
        self.workload = workload
        self.seed = seed
        self.templates = check.load_reference()["service"]
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.calibs: List[float] = []
        self._count = 0

    def server(self, traced: bool = False) -> Server:
        self._count += 1
        return Server(self.ctx, f"srv{self._count}", traced=traced)

    def serve(self, server: Server, seconds: float) -> Phase:
        """Warm ``server`` up, then run the timed phase against it."""
        warm = warm_up(server, self.workload, self.seed, self.templates)
        for job in warm:
            self.problems += job.problems
        self.calibs.append(calibrate())
        phase = timed_phase(server, self.workload, self.seed, seconds, self.templates)
        self.attempted += len(phase.jobs)
        self.failed += phase.failed + sum(1 for job in warm if not job.ok)
        for job in phase.jobs:
            self.problems += job.problems
        return phase


def end_to_end(ctx: Context, workload: ServiceWorkload, seed: int, seconds: float):
    run = ServiceRun(ctx, workload, seed)
    setups = []
    # start-up probes; the last server started serves the workload
    for _ in range(SETUP_SAMPLES - 1):
        probe = run.server()
        setups.append(probe.setup_s)
        probe.stop()
    server = run.server()
    try:
        setups.append(server.setup_s)
        phase = run.serve(server, seconds)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    samples = {
        "setup_s": setups,
        "wall_s": [phase.wall_s],
        "peak_rss_mb": [rss],
        "job_p50_s": phase.latencies,
        "job_p90_s": phase.latencies,
        "harness.calib_s": run.calibs,
    }
    return run, samples


def _job_trace(server: Server, job_id: str) -> dict:
    path = os.path.join(server.data_dir, "jobs", job_id, "trace.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def per_layer(ctx: Context, workload: ServiceWorkload, seed: int, seconds: float):
    """An untraced then a traced server, each with half the timed phase."""
    run = ServiceRun(ctx, workload, seed)
    plain_server = run.server()
    try:
        plain = run.serve(plain_server, seconds / 2)
    finally:
        plain_server.stop()
    server = run.server(traced=True)
    try:
        traced = run.serve(server, seconds / 2)
    finally:
        server.stop()
    for line in server.log().splitlines():
        if line.startswith("not wrapped"):
            print(line, file=sys.stderr)
    timed = {job.job_id for job in traced.jobs if job.job_id}
    recorded = [s for s in spans.load(server.spans_path) if s.run in timed]
    metrics = layers.span_metrics(spans.by_name(recorded))

    submitted = {s.run: s.end for s in recorded if s.name == "service.jobs.submit"}
    runs = [s for s in recorded if s.name == "service.jobs.run_job"]
    waits = [s.start - submitted[s.run] for s in runs if s.run in submitted]
    durations = [s.duration for s in runs]
    documents = [_job_trace(server, job_id) for job_id in sorted(timed)]
    caches = [job.cache for job in traced.jobs if job.cache]
    keys = ("hits", "lookups", "misses", "plan_hits", "disk_hits", "shared_hits")
    total = {key: sum(c[key] for c in caches) for key in keys}
    run_rounds = sum(s.duration for s in recorded if s.name == "engine.executors.run_round")
    shards = sum(layers.longest_span(d, "engine.shard") for d in documents)
    window = [s for s in recorded if s.parent is None]
    lo = min(s.start for s in window)
    hi = max(s.end for s in window)
    per_job = lambda phase: phase.wall_s / len(phase.jobs)  # noqa: E731
    # what `python -m repro serve-api` imports before it can listen
    metrics.update(layers.import_profile(ctx, "import repro.cli, repro.service"))
    metrics.update(
        {
            "graphs.soa.plan_hit_ratio": layers.plan_hit_ratio(total),
            "core.adversary.run_memo_hit_ratio": layers.run_memo_hit_ratio(documents),
            "engine.executors.dispatch_s": run_rounds - shards,
            "engine.cache.hit_ratio": layers.ratio(total["hits"], total["lookups"]),
            "engine.cache.disk_hits": total["disk_hits"],
            "engine.cache.shared_hits": total["shared_hits"],
            "service.http.request_p50_s": statistics.median(traced.request_s),
            "service.queue_wait_p90_s": quantile(waits, 0.9),
            "service.run_p50_s": quantile(durations, 0.5),
            "service.run_p90_s": quantile(durations, 0.9),
            "service.rejected": sum(1 for job in plain.jobs + traced.jobs if job.state.startswith("http-")),
            "harness.calib_s": statistics.median(run.calibs),
            "harness.trace_overhead_ratio": per_job(traced) / per_job(plain),
            "harness.unattributed_s": spans.unattributed(recorded, lo, hi),
        }
    )
    return run, metrics
