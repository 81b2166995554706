"""The multi-host backend: shard servers speaking JSON over stdlib sockets.

``repro serve`` (or :class:`ShardServer` embedded in tests) listens on a
``host:port`` and executes shard payloads it receives; ``SocketExecutor``
round-robins a round's shards across its hosts, ships each as
newline-delimited JSON, and raises the server's marshalled exception at
the driver as if the shard had run locally.  With no hosts configured the
executor self-hosts loopback servers on ephemeral ports, on threads of
the sweeping process — how the conformance suite drives this backend —
which also means its ``kill-worker`` faults degrade to raised
:class:`~repro.engine.faults.InjectedWorkerError` (``separate_process``
is true only for external hosts; see :mod:`repro.engine.executors.base`).

Everything a payload carries is JSON-native and result rows carry only
JSON-native scalars, so a row that crossed the wire serialises
byte-identically to one computed in-process — the conformance suite
asserts exactly that.

This module is a sanctioned worker module (``LintConfig.worker_modules``):
the loopback servers run on named background threads and the client fans
a round out over a thread pool (one thread per host; in-process shard
execution is still serialised by the shard runtime's ambient lock).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import List, Optional, Sequence, Tuple

from ..faults import InjectedWorkerError
from .base import ShardFailure, ShardOutcome, SweepExecutor
from .shard import CellExecutionError, CellTimeout, run_shard

__all__ = [
    "ShardServer",
    "SocketExecutor",
    "parse_hosts",
]

_ENCODING = "utf-8"


def parse_hosts(spec) -> List[Tuple[str, int]]:
    """Normalise host specs: ``"h1:7641,h2:7642"``, tuples, or mixtures."""
    if spec is None:
        return []
    if isinstance(spec, str):
        parts = [part.strip() for part in spec.split(",") if part.strip()]
    else:
        parts = list(spec)
    hosts: List[Tuple[str, int]] = []
    for part in parts:
        if isinstance(part, str):
            host, sep, port = part.rpartition(":")
            if not sep or not host:
                raise ValueError(f"bad host spec {part!r} (want HOST:PORT)")
            try:
                hosts.append((host, int(port)))
            except ValueError:
                raise ValueError(f"bad port in host spec {part!r}") from None
        else:
            host, port = part
            hosts.append((str(host), int(port)))
    return hosts


def _send_line(fh, obj: dict) -> None:
    fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    fh.flush()


def _recv_line(fh) -> dict:
    line = fh.readline()
    if not line:
        raise ConnectionError("shard server closed the connection mid-request")
    return json.loads(line)


def _error_payload(exc: BaseException) -> dict:
    """Marshal a shard exception for the wire; unmarshalled by the client."""
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CellExecutionError):
        payload["record"] = exc.as_record()
    elif isinstance(exc, CellTimeout):
        payload["key"] = exc.key
        payload["timeout"] = exc.timeout
    return payload


def _raise_remote(error: dict) -> None:
    """Re-raise a server-marshalled exception with its original type.

    The three engine-meaningful types are reconstructed exactly (the
    driver's recovery triage dispatches on them); anything else surfaces
    as a RuntimeError naming the remote type.
    """
    kind = error.get("type")
    message = error.get("message", "")
    if kind == "CellExecutionError":
        record = error.get("record") or {}
        raise CellExecutionError(
            record.get("key", "?"),
            record.get("algorithm", "?"),
            record.get("delta", -1),
            record.get("chain", "?"),
            record.get("seed", -1),
            record.get("error", message),
        )
    if kind == "CellTimeout":
        raise CellTimeout(error.get("key", "?"), float(error.get("timeout", 0.0)))
    if kind == "InjectedWorkerError":
        raise InjectedWorkerError(message)
    raise RuntimeError(f"shard server error: {kind}: {message}")


class ShardServer:
    """Serve shard payloads over a socket; one request at a time.

    The protocol is one JSON object per line in each direction::

        -> {"op": "run_shard", "payload": {...}}
        <- {"ok": true, "result": [shard, rows, trace, cache_stats]}
        <- {"ok": false, "error": {"type": ..., "message": ...}}

    plus ``{"op": "ping"}`` for liveness.  Requests execute strictly
    sequentially — the server is one worker, and in-process shard
    execution is serialised by the shard runtime anyway.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.2)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.requests_served = 0

    def serve_forever(self, max_requests: Optional[int] = None) -> None:
        """Accept and answer requests until stopped (or ``max_requests``)."""
        try:
            while not self._stop_event.is_set():
                if max_requests is not None and self.requests_served >= max_requests:
                    break
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                with conn:
                    self._handle(conn, max_requests)
        finally:
            self._listener.close()

    def _handle(self, conn: socket.socket, max_requests: Optional[int]) -> None:
        fh = conn.makefile("rw", encoding=_ENCODING, newline="\n")
        with fh:
            while not self._stop_event.is_set():
                if max_requests is not None and self.requests_served >= max_requests:
                    return
                try:
                    request = _recv_line(fh)
                except ConnectionError:
                    return  # client hung up between requests
                except (OSError, ValueError):
                    return  # torn connection or garbage framing: drop it
                self.requests_served += 1
                try:
                    reply = self._answer(request)
                except Exception as exc:  # noqa: BLE001 - marshalled to the client
                    reply = {"ok": False, "error": _error_payload(exc)}
                try:
                    _send_line(fh, reply)
                except OSError:
                    return

    def _answer(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "result": "pong"}
        if op == "run_shard":
            outcome = run_shard(request["payload"])
            return {"ok": True, "result": list(outcome)}
        return {"ok": False, "error": {"type": "ValueError", "message": f"unknown op {op!r}"}}

    def start(self) -> None:
        """Serve on a named background thread (the loopback/test mode)."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True, name=f"shard-server-{self.address[1]}"
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        self._listener.close()


class SocketExecutor(SweepExecutor):
    """Fan a round's shards out over shard servers reached by socket."""

    name = "socket"
    parallel = True

    def __init__(self, workers: int = 0, hosts: Sequence[Tuple[str, int]] = ()):
        #: ``(host, port)`` pairs, as :class:`ExecutionOptions` parses them
        self._external = list(hosts)
        #: fan-out: the configured hosts, or a self-hosted loopback pair
        self.width = len(self._external) if self._external else max(2, workers)
        self._local_servers: List[ShardServer] = []
        self._hosts: List[Tuple[str, int]] = list(self._external)
        # kill-worker only arms the real SIGKILL on external hosts — a
        # loopback "worker" is a thread of this very process
        self.separate_process = bool(self._external)

    def start(self) -> None:
        if self._external or self._local_servers:
            return
        for _ in range(self.width):
            server = ShardServer()
            server.start()
            self._local_servers.append(server)
        self._hosts = [server.address for server in self._local_servers]

    def run_round(
        self, payloads: List[dict], on_row=None
    ) -> Tuple[List[ShardOutcome], List[ShardFailure]]:
        outcomes: List[ShardOutcome] = []
        failures: List[ShardFailure] = []
        if not payloads:
            return outcomes, failures
        if not self._hosts:
            self.start()
        from concurrent.futures import ThreadPoolExecutor

        assigned = [
            (payload, self._hosts[index % len(self._hosts)])
            for index, payload in enumerate(payloads)
        ]
        with ThreadPoolExecutor(
            max_workers=min(len(self._hosts), len(payloads)),
            thread_name_prefix="shard-client",
        ) as pool:
            futures = [
                (pool.submit(self._run_on_host, payload, address), payload)
                for payload, address in assigned
            ]
            for future, payload in futures:
                try:
                    outcomes.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - triaged by the driver
                    failures.append((payload, exc))
        return outcomes, failures

    def _run_on_host(self, payload: dict, address: Tuple[str, int]) -> ShardOutcome:
        """Ship one shard to one host as one request; return its outcome."""
        with socket.create_connection(address, timeout=None) as conn:
            fh = conn.makefile("rw", encoding=_ENCODING, newline="\n")
            with fh:
                _send_line(fh, {"op": "run_shard", "payload": payload})
                reply = _recv_line(fh)
        if not reply.get("ok"):
            _raise_remote(reply.get("error", {}))
        shard_index, rows, doc, stats = reply["result"]
        return shard_index, rows, doc, stats

    def is_worker_loss(self, exc: BaseException) -> bool:
        # a vanished server (connection refused, reset, or torn mid-reply)
        # is the socket backend's "worker died"
        return isinstance(exc, (OSError, InjectedWorkerError))

    def close(self) -> None:
        for server in self._local_servers:
            server.stop()
        self._local_servers = []
        if not self._external:
            self._hosts = []
