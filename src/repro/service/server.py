"""The stdlib HTTP/JSON front-end over :class:`~repro.service.jobs.SweepService`.

A deliberately small, dependency-free API in the spirit of the socket
backend's newline-JSON shard protocol: every request and response body is
one JSON document, every route lives under ``/v1/``.

====================================  =========================================
Route                                 Meaning
====================================  =========================================
``GET /v1/healthz``                   liveness + service stats
``GET /v1/stats``                     queue/job/tenant accounting,
                                      queue-wait and run-time percentiles,
                                      ``429`` counts, memory-tier size
``POST /v1/jobs``                     submit ``{"grid": {...}}``; tenant from
                                      the body's ``tenant`` or the
                                      ``X-Repro-Tenant`` header; ``202`` with
                                      the job document, ``429`` +
                                      ``Retry-After`` under backpressure
``GET /v1/jobs``                      list jobs (``?tenant=`` filters)
``GET /v1/jobs/<id>``                 one job document
``GET /v1/jobs/<id>/progress``        schema-v1 progress events
                                      (``?offset=N``, ``N >= 0``, tails
                                      incrementally)
``GET /v1/jobs/<id>/rows``            finished rows (``409`` until ``done``)
``DELETE /v1/jobs/<id>``              cancel a queued or running job
====================================  =========================================

The server is a :class:`http.server.ThreadingHTTPServer` — one thread per
connection, all of them funnelling into the service's single lock — which
is why this module is a sanctioned worker module
(``LintConfig.worker_modules``).  See ``docs/service.md``.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .jobs import Backpressure, SweepService

__all__ = ["ServiceServer"]


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP request into the shared :class:`SweepService`."""

    service: SweepService  # injected by ServiceServer via a subclass attribute
    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response goes out as two writes (headers, body), and
    # with Nagle on the body waits for the client's delayed ACK (~40 ms)
    # on every keep-alive request
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging stays out of stdout; the JSON bodies are the record

    def _send(self, code: int, payload, headers: Optional[dict] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, headers: Optional[dict] = None, **extra) -> None:
        self._send(code, {"error": message, **extra}, headers=headers)

    def _read_body(self) -> Optional[dict]:
        """The request's JSON object body, or ``None`` once a 400 is sent."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            length = -1
        if length < 0:
            # the body's framing is unknown, so nothing after it on this
            # connection can be parsed either: answer and hang up (the
            # Connection header sets close_connection)
            self._error(
                400, f"invalid Content-Length {declared!r}", headers={"Connection": "close"}
            )
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = None
        if not isinstance(payload, dict):
            self._error(400, "request body must be a JSON object")
            return None
        return payload

    def _route(self) -> Tuple[str, dict]:
        parsed = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        path, query = self._route()
        if path in ("/v1/healthz", "/v1/stats"):
            payload = self.service.stats()
            if path.endswith("healthz"):
                payload = {"ok": True, **payload}
            self._send(200, payload)
        elif path == "/v1/jobs":
            jobs = self.service.jobs(tenant=query.get("tenant"))
            self._send(200, {"jobs": [job.as_dict() for job in jobs]})
        elif path.startswith("/v1/jobs/"):
            self._get_job(path, query)
        else:
            self._error(404, f"no route {path}")

    def _get_job(self, path: str, query: dict) -> None:
        parts = path.split("/")[3:]  # after /v1/jobs/
        job = self.service.get(parts[0])
        if job is None:
            self._error(404, f"no job {parts[0]!r}")
        elif len(parts) == 1:
            self._send(200, job.as_dict())
        elif parts[1] == "progress":
            try:
                offset = int(query.get("offset", 0))
            except ValueError:
                offset = -1
            if offset < 0:
                self._error(400, "offset must be a non-negative integer")
                return
            self._send(200, self.service.progress(job.id, offset=offset))
        elif parts[1] == "rows":
            rows = self.service.rows(job.id)
            if rows is None:
                self._error(409, f"job {job.id} is {job.state}, not done", state=job.state)
            else:
                self._send(200, {"id": job.id, "cells": len(rows), "rows": rows})
        else:
            self._error(404, f"no route {path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        path, _ = self._route()
        if path != "/v1/jobs":
            self._error(404, f"no route {path}")
            return
        body = self._read_body()
        if body is None:
            return
        tenant = body.get("tenant") or self.headers.get("X-Repro-Tenant")
        try:
            job = self.service.submit(
                body.get("grid") or {}, tenant=tenant, faults=body.get("faults")
            )
        except Backpressure as exc:
            self._error(
                429,
                exc.reason,
                headers={"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
                retry_after=exc.retry_after,
            )
        except (ValueError, TypeError, KeyError) as exc:
            self._error(400, f"invalid submission: {exc}")
        else:
            self._send(202, job.as_dict())

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib dispatch name
        path, _ = self._route()
        parts = path.split("/")
        if len(parts) == 4 and path.startswith("/v1/jobs/"):
            job = self.service.get(parts[3])
            if job is None:
                self._error(404, f"no job {parts[3]!r}")
            elif self.service.cancel(job.id):
                self._send(202, job.as_dict())
            else:
                self._error(409, f"job {job.id} already {job.state}", state=job.state)
        else:
            self._error(404, f"no route {path}")


class ServiceServer:
    """Bind the job service to a listening socket.

    ``port=0`` picks a free port (tests); :meth:`start` serves from a
    background thread and returns, :meth:`serve_forever` blocks (the CLI
    path).  Either way :meth:`stop` shuts down the HTTP loop and then the
    service's workers.
    """

    def __init__(self, service: SweepService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> None:
        """Serve requests from a background thread (idempotent)."""
        self.service.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True, name="sweep-service-http"
            )
            self._thread.start()

    def serve_forever(self) -> None:
        """Blocking serve loop for ``repro serve-api``."""
        self.service.start()
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()
