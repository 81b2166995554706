"""Job machinery behind the sweep-as-a-service HTTP API.

:class:`SweepService` is the transport-free core: a bounded FIFO job queue
drained by a fixed pool of worker threads, each running one submitted
:class:`~repro.engine.grid.GridSpec` through :func:`repro.api.sweep`.  The
HTTP layer (:mod:`repro.service.server`) is a thin translation on top, so
every behaviour here is testable without opening a socket.

Jobs are plain directories.  Each job owns ``<data_dir>/jobs/<id>/`` and a
sweep writes its ordinary artifacts there — JSONL result shards,
``summary.json``, ``trace.json`` and the schema-v1 ``progress.jsonl``
(:mod:`repro.obs.progress`).  "Streaming" a job's progress is therefore
just tailing a file the engine already maintains, and serving finished
rows is reading the store's summary: the service adds queueing, tenancy
and backpressure, never a second result format, which is what keeps job
rows byte-identical to the equivalent CLI sweep.

A tenant owns its jobs and its rate budget.  Every job thread shares the
process-wide run memo (:mod:`repro.graphs.memo`) and the canonicaliser's
shape-plan cache, so a verified run or a form computed for one job serves
every later job, whoever submitted it (``docs/service.md``).

Backpressure follows the engine's bounded-retry vocabulary: a full queue
or an exhausted per-tenant token bucket raises :class:`Backpressure` with
a ``retry_after`` hint, which the HTTP layer maps to ``429`` +
``Retry-After``.

This module is a sanctioned worker module (``LintConfig.worker_modules``)
for its drain-loop threads, and a sanctioned clock reader
(``LintConfig.clock_modules``): the token bucket's clock is injected and
defaults to :func:`time.monotonic`, feeding only admission control, and
the queue-wait and run-time histograms of :meth:`SweepService.stats` read
:func:`time.monotonic` — never any model output.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from .. import api
from ..engine.faults import as_plan
from ..engine.grid import GridSpec, expand
from ..engine.store import ResultStore
from ..graphs.memo import RUNS
from ..obs.export import counter_total
from ..obs.metrics import Histogram
from ..obs.progress import ProgressEmitter, read_progress_events

__all__ = [
    "Backpressure",
    "Job",
    "JobCancelled",
    "JOB_STATES",
    "ServiceConfig",
    "SweepService",
    "TokenBucket",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: tenant names arrive from clients; keep them boring on purpose
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(name: str) -> str:
    """Return ``name`` if it is a safe tenant identifier, else raise."""
    if not _TENANT_RE.match(name):
        raise ValueError(f"invalid tenant {name!r}: want {_TENANT_RE.pattern}")
    return name


class JobCancelled(RuntimeError):
    """Raised inside a running sweep when its job's cancel flag is set."""


class Backpressure(RuntimeError):
    """The service cannot admit a submission right now; retry later.

    ``retry_after`` is the server's hint in seconds — the HTTP layer
    surfaces it as a ``Retry-After`` header on a ``429`` response.
    """

    def __init__(self, reason: str, retry_after: float):
        self.reason = reason
        self.retry_after = retry_after
        super().__init__(f"{reason} (retry after {retry_after:.2f}s)")


class TokenBucket:
    """Classic token-bucket rate limiter with an injected clock.

    ``rate`` tokens refill per second up to ``burst``; :meth:`acquire`
    takes one token and returns ``0.0``, or returns the seconds until the
    next token when the bucket is empty (taking nothing).
    """

    def __init__(self, rate: float, burst: float, clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}/{burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def acquire(self) -> float:
        now = self._clock()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass(frozen=True)
class ServiceConfig:
    """Static knobs of one :class:`SweepService` instance.

    ``sweep_options`` are engine execution options (``workers``,
    ``cell_timeout``, …) forwarded verbatim to every job's
    :func:`repro.api.sweep` call; ``rate == 0`` disables per-tenant rate
    limiting.  A size that cannot work, or a default tenant no client
    could name, raises ``ValueError``.
    """

    data_dir: Path = Path("service-data")
    queue_size: int = 16
    job_workers: int = 1
    rate: float = 0.0
    burst: int = 4
    progress_interval: float = 0.2
    default_tenant: str = "public"
    sweep_options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.queue_size < 1:
            raise ValueError(f"queue_size must be at least 1, got {self.queue_size}")
        if self.job_workers < 1:
            raise ValueError(f"job_workers must be at least 1, got {self.job_workers}")
        if self.rate < 0:
            raise ValueError(f"rate must be non-negative, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be at least 1, got {self.burst}")
        if self.progress_interval < 0:
            raise ValueError(
                f"progress_interval must be non-negative, got {self.progress_interval}"
            )
        validate_tenant(self.default_tenant)


@dataclass
class Job:
    """One submitted sweep and its lifecycle state."""

    id: str
    tenant: str
    grid: GridSpec
    directory: Path
    cells: int
    state: str = "queued"
    error: Optional[str] = None
    summary: Optional[str] = None
    cache: Optional[dict] = None
    rows: int = 0
    faults: Optional[dict] = None
    cancel: threading.Event = field(default_factory=threading.Event)
    submitted: float = field(default_factory=time.monotonic)

    def as_dict(self) -> dict:
        """The JSON-ready account the API serves for this job."""
        return {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "grid": self.grid.as_dict(),
            "cells": self.cells,
            "rows": self.rows,
            "error": self.error,
            "summary": self.summary,
            "cache": self.cache,
        }


class _CancellableProgress:
    """Progress wrapper that aborts the owning sweep when a job is cancelled.

    Raising from the emitter's ``update`` hook unwinds ``run_sweep`` from
    inside its per-row callback; the driver's ``finally`` then calls
    ``close()`` on this wrapper, which flushes the inner emitter's
    ``aborted`` event exactly once (the emitter's own idempotence).  Only
    the thread that created the wrapper raises — a background progress
    monitor polling the same emitter must not die of someone else's
    cancellation.
    """

    def __init__(self, inner: ProgressEmitter, cancel: threading.Event):
        self._inner = inner
        self._cancel = cancel
        self._owner = threading.get_ident()

    @property
    def interval(self) -> float:
        return self._inner.interval

    def start(self, total: int, resumed: int = 0) -> None:
        # forward first: a pre-cancelled job still opens the event log, so
        # its abort is observable as start -> aborted
        self._inner.start(total, resumed=resumed)
        self._check()

    def update(self, done: int, **kwargs) -> None:
        self._check()
        self._inner.update(done, **kwargs)

    def finish(self, done: int, **kwargs) -> None:
        self._inner.finish(done, **kwargs)

    def close(self) -> None:
        self._inner.close()

    def _check(self) -> None:
        if self._cancel.is_set() and threading.get_ident() == self._owner:
            raise JobCancelled("job cancelled")


def _summary(histogram: Histogram) -> dict:
    """The JSON account of one latency histogram, in seconds."""
    return {
        "count": histogram.count,
        "p50": histogram.p50,
        "p95": histogram.p95,
        "max": histogram.max,
    }


class SweepService:
    """Bounded job queue + worker threads driving :func:`repro.api.sweep`.

    All mutable state is guarded by one lock; the worker threads' targets
    are bound methods touching only instance state (the engine-concurrency
    lint's sanctioned shape).  ``start()``/``stop()`` bracket the worker
    pool; submissions are accepted while stopped and drain on start.
    """

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.data_dir = Path(self.config.data_dir)
        self.jobs_dir = self.data_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: Deque[Job] = deque()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._buckets: Dict[str, TokenBucket] = {}
        # a restarted service continues the numbering, so a new job never
        # writes into an earlier run's job directory
        self._sequence = max(
            (int(path.name[4:]) for path in self.jobs_dir.glob("job-*") if path.name[4:].isdigit()),
            default=0,
        )
        self._queue_wait = Histogram()
        self._run_time = Histogram()
        self._rejected: Dict[str, int] = {"queue_full": 0, "rate_limited": 0}
        # run-memo entries evicted by finished jobs, from their traces
        self._evictions = 0
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        for index in range(self.config.job_workers):
            thread = threading.Thread(
                target=self._drain_loop, daemon=True, name=f"sweep-service-{index}"
            )
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop the workers after their current job; queued jobs remain."""
        self._stop.set()
        with self._wakeup:
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []

    # -- submission and queries --------------------------------------------

    def submit(self, grid, tenant: Optional[str] = None, faults=None) -> Job:
        """Validate and enqueue one sweep; returns the queued :class:`Job`.

        Raises :class:`ValueError` on a bad grid/tenant/fault plan and
        :class:`Backpressure` when the queue is full or the tenant's rate
        budget is exhausted.
        """
        tenant = validate_tenant(tenant or self.config.default_tenant)
        spec = grid if isinstance(grid, GridSpec) else GridSpec.from_mapping(grid)
        cells = len(expand(spec))  # also validates the axes
        plan = as_plan(faults)
        with self._lock:
            if self.config.rate > 0:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = self._buckets[tenant] = TokenBucket(
                        self.config.rate, self.config.burst
                    )
                wait = bucket.acquire()
                if wait > 0:
                    self._rejected["rate_limited"] += 1
                    raise Backpressure(f"tenant {tenant!r} rate limited", wait)
            if len(self._queue) >= self.config.queue_size:
                self._rejected["queue_full"] += 1
                # the engine's bounded-retry idiom: don't block, name the
                # backoff — one queue drain period is the honest hint
                raise Backpressure(
                    "job queue full",
                    max(1.0, self.config.progress_interval * self.config.queue_size),
                )
            self._sequence += 1
            job_id = f"job-{self._sequence:06d}"
            job = Job(
                id=job_id,
                tenant=tenant,
                grid=spec,
                directory=self.jobs_dir / job_id,
                cells=cells,
                faults=plan.as_dict() if plan is not None else None,
            )
            job.directory.mkdir(parents=True, exist_ok=True)
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._queue.append(job)
            self._wakeup.notify()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            listed = [self._jobs[job_id] for job_id in self._order]
        if tenant is not None:
            listed = [job for job in listed if job.tenant == tenant]
        return listed

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued or running job; ``False`` when already settled."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state in ("done", "failed", "cancelled"):
                return False
            if job.state == "queued":
                job.state = "cancelled"
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass
                return True
        # running: flag it; the sweep aborts at its next progress beat
        job.cancel.set()
        return True

    def rows(self, job_id: str) -> Optional[List[dict]]:
        """A finished job's merged result rows, straight from its store."""
        job = self.get(job_id)
        if job is None or job.state != "done":
            return None
        summary = ResultStore(job.directory).read_summary()
        return summary.get("rows", []) if summary else []

    def progress(self, job_id: str, offset: int = 0) -> Optional[dict]:
        """Tail a job's schema-v1 progress events from ``offset``."""
        job = self.get(job_id)
        if job is None:
            return None
        path = job.directory / "progress.jsonl"
        events = read_progress_events(path) if path.exists() else []
        return {"id": job_id, "offset": len(events), "events": events[offset:]}

    def stats(self) -> dict:
        """A JSON-ready account of queue, jobs, tenancy and latencies."""
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "queue": {"depth": len(self._queue), "capacity": self.config.queue_size},
                "jobs": states,
                "tenants": sorted({job.tenant for job in self._jobs.values()}),
                "workers": len(self._threads),
                "queue_wait_s": _summary(self._queue_wait),
                "run_s": _summary(self._run_time),
                "rejected": dict(self._rejected),
                "memory_tier": {
                    "entries": len(RUNS),
                    "limit": RUNS.limit,
                    "evictions": self._evictions,
                },
            }

    # -- the worker loop ---------------------------------------------------

    def _drain_loop(self) -> None:
        while True:
            with self._wakeup:
                while not self._queue and not self._stop.is_set():
                    self._wakeup.wait(timeout=0.2)
                if self._stop.is_set():
                    return
                job = self._queue.popleft()
                job.state = "running"
                started = time.monotonic()
                self._queue_wait.observe(started - job.submitted)
            self._run_job(job)
            with self._lock:
                self._run_time.observe(time.monotonic() - started)

    def _run_job(self, job: Job) -> None:
        emitter = ProgressEmitter(
            path=job.directory / "progress.jsonl",
            interval=self.config.progress_interval,
        )
        progress = _CancellableProgress(emitter, job.cancel)
        try:
            self._sweep_job(job, progress)
        except JobCancelled:
            with self._lock:
                job.state = "cancelled"
        except Exception as exc:  # noqa: BLE001 - every failure becomes the job's record
            with self._lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
        finally:
            # idempotent: flushes the `aborted` event exactly once when the
            # sweep unwound before its own close (e.g. a cancel raised from
            # the start hook, before run_sweep's finally existed)
            progress.close()

    def _sweep_job(self, job: Job, progress: "_CancellableProgress") -> None:
        report = api.sweep(
            job.grid,
            out=str(job.directory),
            faults=job.faults,
            progress=progress,
            **dict(self.config.sweep_options),
        )
        evictions = counter_total(report.trace or {}, "adversary.run_memo_evictions")
        with self._lock:
            self._evictions += evictions
            job.state = "done"
            job.summary = report.summary
            job.cache = report.cache.as_dict()
            job.rows = len(report.rows)
