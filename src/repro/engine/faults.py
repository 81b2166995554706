"""Deterministic fault injection for the sweep engine.

The engine's headline claims — resumable, corrupt-tolerant, and
byte-identical however it is executed — are only worth something if they
hold *under* failure.  This module turns each informal failure story into a
mechanically replayable scenario: a :class:`FaultPlan` is a seeded, JSON
round-trippable list of :class:`Fault` triggers, and a
:class:`FaultInjector` built from one fires each trigger at an exactly
reproducible point of a sweep.  The chaos tests (``tests/test_faults.py``)
and the CI chaos step drive :func:`repro.engine.run_sweep` through every
fault class and assert the merged rows still serialise byte-identically to
a fault-free serial sweep.

Fault kinds
-----------
``kill-worker``
    SIGKILL the worker process right before it executes the matching cell
    (in-process shards raise :class:`InjectedWorkerError` instead — there
    is no separate process to kill).  Matches on the sweep *restart round*,
    so a recovered re-run does not die again.
``raise-worker``
    Raise :class:`InjectedWorkerError` before the matching cell: the whole
    shard fails with an exception instead of a dead process.
``stall-cell``
    Sleep ``seconds`` inside the matching cell's execution on the matching
    *retry attempt* — long enough past ``cell_timeout`` and the engine's
    per-cell watchdog fires and retries.
``truncate-shard``
    After the matching cell's row is appended to its JSONL shard, cut the
    file at ``offset`` bytes (negative: from the end) — the torn-write
    signature of a writer killed mid-``write``.

Determinism contract
--------------------
Nothing here consults ambient entropy: triggers anchor on cell keys,
restart rounds, and retry attempts, all of which are pure functions of the
grid and the plan itself, and :meth:`FaultPlan.sample` derives a plan from
an explicit seed via ``random.Random(seed)``.  Replaying a sweep with the
same grid and plan therefore replays the same failures at the same points.
The only clock use is ``time.sleep`` for injected stalls — a sanctioned
clock module (``LintConfig.clock_modules``): the sleep delays execution
but no model output ever depends on it.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..obs.tracer import current_tracer

__all__ = [
    "FAULT_KINDS",
    "PLAN_FORMAT",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "InjectedWorkerError",
    "active_injector",
    "use_faults",
]

PLAN_FORMAT = "repro-fault-plan-v1"

FAULT_KINDS = (
    "kill-worker",
    "raise-worker",
    "stall-cell",
    "truncate-shard",
)


class InjectedWorkerError(RuntimeError):
    """A simulated worker crash (``raise-worker``, or ``kill-worker`` when
    there is no separate process to kill)."""


@dataclass(frozen=True)
class Fault:
    """One replayable trigger; see the module docstring for kind semantics.

    ``cell`` is either an exact cell key or ``"*"`` (match anything).
    ``attempt`` is the sweep restart round for worker faults and the
    per-cell retry attempt for ``stall-cell``; ``None`` matches every
    round/attempt.  Each fault fires at most ``times`` times per
    injector (workers own independent injectors, so anchor worker-local
    faults on cell keys rather than relying on a global count).
    """

    kind: str
    cell: str = "*"
    attempt: Optional[int] = 0
    offset: int = -5
    seconds: float = 0.25
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Fault":
        names = {f.name for f in fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValueError(f"unknown fault fields {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serialisable list of faults — one failure scenario."""

    faults: Tuple[Fault, ...] = ()
    seed: Optional[int] = None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "seed": self.seed,
            "note": self.note,
            "faults": [f.as_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        declared = data.get("format", PLAN_FORMAT)
        if declared != PLAN_FORMAT:
            raise ValueError(f"unknown fault-plan format {declared!r} (want {PLAN_FORMAT!r})")
        return cls(
            faults=tuple(Fault.from_dict(f) for f in data.get("faults", ())),
            seed=data.get("seed"),
            note=data.get("note", ""),
        )

    def dump(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    @classmethod
    def sample(
        cls,
        cell_keys: Sequence[str],
        seed: int,
        kinds: Sequence[str] = ("kill-worker", "raise-worker", "truncate-shard"),
        count: int = 3,
    ) -> "FaultPlan":
        """A deterministic random scenario: ``count`` faults over ``kinds``.

        Every sampled fault is survivable by construction (one-shot, round
        0, transient), so a sweep run under a sampled plan must complete —
        the property the chaos matrix asserts over many seeds.  ``seed``
        fully determines the plan; no ambient entropy is consulted.
        """
        if not cell_keys:
            raise ValueError("cannot sample a fault plan over an empty grid")
        rng = Random(seed)
        faults: List[Fault] = []
        for _ in range(count):
            kind = rng.choice(list(kinds))
            cell = rng.choice(list(cell_keys))
            if kind == "stall-cell":
                faults.append(Fault(kind=kind, cell=cell, seconds=0.4))
            elif kind == "truncate-shard":
                faults.append(Fault(kind=kind, cell=cell, offset=-rng.choice((3, 5, 9))))
            else:  # kill-worker / raise-worker
                faults.append(Fault(kind=kind, cell=cell, attempt=0))
        return cls(faults=tuple(faults), seed=seed, note=f"sampled({seed})")

    def scoped(self, **overrides) -> "FaultPlan":
        """A copy with top-level fields replaced (faults stay shared)."""
        return replace(self, **overrides)


class FaultInjector:
    """Fires a plan's faults at the engine's instrumented trigger points.

    One injector per execution context (the coordinator's in-process shard
    loop, or each worker process); ``in_worker`` decides whether
    ``kill-worker`` sends a real SIGKILL or degrades to
    :class:`InjectedWorkerError`.  Every fire is recorded in ``fired`` and
    counted on the ambient tracer (``engine.fault`` counter, ``kind``
    label) so merged sweep traces account for the injected failures.
    """

    def __init__(self, plan: FaultPlan, *, shard: Optional[int] = None, in_worker: bool = False):
        self.plan = plan
        self.shard = shard
        self.in_worker = in_worker
        self.fired: List[dict] = []
        self._counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _match(
        self,
        kind: str,
        *,
        cell: Optional[str] = None,
        attempt: Optional[int] = None,
    ) -> Optional[Fault]:
        for index, fault in enumerate(self.plan.faults):
            if fault.kind != kind:
                continue
            if self._counts.get(index, 0) >= fault.times:
                continue
            if cell is not None and fault.cell not in ("*", cell):
                continue
            if attempt is not None and fault.attempt is not None and fault.attempt != attempt:
                continue
            self._counts[index] = self._counts.get(index, 0) + 1
            record = dict(fault.as_dict(), shard=self.shard)
            if cell is not None:
                record["matched_cell"] = cell
            self.fired.append(record)
            current_tracer().metrics.counter("engine.fault", kind=kind).inc()
            return fault
        return None

    # ------------------------------------------------------------------
    # trigger points (called by the shard runtime and the store)
    # ------------------------------------------------------------------
    def on_worker_cell(self, cell_key: str, round_: int) -> None:
        """Worker is about to execute ``cell_key`` in restart round ``round_``."""
        if self._match("kill-worker", cell=cell_key, attempt=round_) is not None:
            if self.in_worker:
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies here
            raise InjectedWorkerError(f"injected worker kill at cell {cell_key}")
        if self._match("raise-worker", cell=cell_key, attempt=round_) is not None:
            raise InjectedWorkerError(f"injected worker crash at cell {cell_key}")

    def on_cell_body(self, cell_key: str, attempt: int) -> None:
        """Inside the (possibly watchdogged) execution of ``cell_key``."""
        fault = self._match("stall-cell", cell=cell_key, attempt=attempt)
        if fault is not None:
            time.sleep(fault.seconds)

    def on_store_append(self, path, cell_key: Optional[str]) -> None:
        """A row for ``cell_key`` was flushed to the shard file at ``path``."""
        fault = self._match("truncate-shard", cell=cell_key or "*")
        if fault is None:
            return
        path = Path(path)
        size = path.stat().st_size
        cut = max(0, size + fault.offset if fault.offset < 0 else min(fault.offset, size))
        with path.open("r+b") as fh:
            fh.truncate(cut)

    def report(self) -> List[dict]:
        """The faults fired so far, in firing order (JSON-ready)."""
        return list(self.fired)


#: the ambient injector consulted by the store's trigger point; ``None``
#: (the default) keeps every fault hook a single attribute read
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The ambient :class:`FaultInjector`, or ``None`` outside fault runs."""
    return _ACTIVE


class use_faults:
    """Install ``injector`` as the ambient injector for a ``with`` block.

    ``use_faults(None)`` is a no-op guard, so call sites need no branching.
    """

    def __init__(self, injector: Optional[FaultInjector]):
        self._injector = injector
        self._previous: Optional[FaultInjector] = None

    def __enter__(self) -> Optional[FaultInjector]:
        global _ACTIVE
        self._previous = _ACTIVE
        if self._injector is not None:
            _ACTIVE = self._injector
        return self._injector

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        if self._injector is not None:
            _ACTIVE = self._previous
        return False


def as_plan(faults: Union[FaultPlan, dict, str, Path, None]) -> Optional[FaultPlan]:
    """Coerce the public ``faults=`` argument into a :class:`FaultPlan`.

    Accepts a ready plan, its ``as_dict`` form, or a path to a JSON file.
    """
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, dict):
        return FaultPlan.from_dict(faults)
    return FaultPlan.load(faults)
