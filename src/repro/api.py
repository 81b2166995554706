"""The stable public surface of :mod:`repro`.

Three verbs cover the repository's workflows:

* :func:`run` — execute a distributed algorithm on a graph (or prebuilt
  network) under the LOCAL runtime, optionally bounded to an exact round
  budget, sanitized, and traced;
* :func:`refute` — test a claimed run-time against the Section 4 adversary,
  optionally stacking the Section 5 simulation chain (EC ⇐ PO ⇐ OI ⇐ ID)
  in front of a base machine;
* :func:`sweep` — run a declarative grid of (algorithm, ∆, chain, seed)
  cells through the parallel experiment engine (:mod:`repro.engine`).

Everything here is re-exported keyword-first and model-agnostic: ``run``
builds the right network adapter from the algorithm's declared model, and
``refute`` accepts either a ready EC-weight algorithm or a ``chain`` name.
Returns are typed: ``run`` a :class:`RunResult`, ``refute`` a
:class:`Refutation`, ``sweep`` a frozen :class:`SweepReport` — no raw
dict ever escapes the facade.  The lower-level modules remain importable,
but new code (and the CLI) should go through this facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .core.theorem import Refutation, chain_from_name
from .core.theorem import refute as _theorem_refute
from .graphs.digraph import POGraph
from .graphs.multigraph import ECGraph
from .local.algorithm import DistributedAlgorithm, ECWeightAlgorithm
from .local.runtime import (
    ECNetwork,
    IDNetwork,
    Network,
    PONetwork,
    RunResult,
    run as _run,
    run_rounds as _run_rounds,
)

__all__ = [
    "Refutation",
    "RunResult",
    "SweepReport",
    "refute",
    "run",
    "sweep",
]

_NETWORKS = {"EC": ECNetwork, "PO": PONetwork, "ID": IDNetwork}


@dataclass(frozen=True)
class SweepReport:
    """Immutable facade view of one sweep, mirroring
    :class:`repro.engine.SweepResult`.

    ``rows`` is a tuple (the engine's merged, key-sorted result rows);
    ``cache`` is the engine's :class:`~repro.engine.cache.CacheStats`;
    ``summary`` is the engine's one-line human account, precomputed so the
    report never needs the engine imported to describe itself.
    """

    grid: Mapping[str, Any]
    rows: Tuple[Mapping[str, Any], ...]
    workers: int
    backend: str
    cache: Any
    resumed: int
    recovery: Mapping[str, int]
    out_dir: Optional[str]
    trace: Optional[Mapping[str, Any]]
    summary: str

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @classmethod
    def from_engine(cls, result) -> "SweepReport":
        """Freeze a :class:`repro.engine.SweepResult` into a report."""
        return cls(
            grid=result.grid,
            rows=tuple(result.rows),
            workers=result.workers,
            backend=result.backend,
            cache=result.cache,
            resumed=result.resumed,
            recovery=result.recovery,
            out_dir=result.out_dir,
            trace=result.trace,
            summary=result.summary(),
        )


def _as_network(algorithm: DistributedAlgorithm, graph: Any, globals_: Optional[Dict[str, Any]]) -> Network:
    """Wrap ``graph`` in the network adapter matching the algorithm's model."""
    if isinstance(graph, Network):
        if globals_:
            raise ValueError("pass globals to the Network constructor, not to run()")
        return graph
    if isinstance(graph, ECGraph):
        network_cls = ECNetwork
    elif isinstance(graph, POGraph):
        network_cls = PONetwork
    else:
        network_cls = _NETWORKS.get(algorithm.model, IDNetwork)
    return network_cls(graph, globals_=globals_)


def run(
    algorithm: DistributedAlgorithm,
    graph: Any,
    *,
    rounds: Optional[int] = None,
    max_rounds: int = 10_000,
    tracer=None,
    sanitize: bool = False,
    sanitize_mode: str = "raise",
    globals: Optional[Dict[str, Any]] = None,  # noqa: A002 - deliberate public name
) -> RunResult:
    """Execute ``algorithm`` on ``graph`` and return the :class:`RunResult`.

    ``graph`` may be an :class:`ECGraph`, a :class:`POGraph`, a simple
    networkx graph (ID model) or an already-built :class:`Network`; the
    adapter is chosen from the algorithm's declared model.  With ``rounds``
    set, exactly that many communication rounds execute and non-halted
    nodes are snapshotted (:func:`repro.local.runtime.run_rounds`);
    otherwise the run continues until all nodes output or ``max_rounds``.

    ``sanitize`` wraps every node context in the locality sanitizer;
    ``tracer`` attaches a :class:`repro.obs.Tracer` (defaults to the
    ambient one).  ``globals`` seeds the network's shared global knowledge
    (e.g. ``{"delta": 4}``) and must be ``None`` when ``graph`` is already
    a network.
    """
    network = _as_network(algorithm, graph, globals)
    if rounds is not None:
        return _run_rounds(
            network,
            algorithm,
            rounds,
            sanitize=sanitize,
            sanitize_mode=sanitize_mode,
            tracer=tracer,
        )
    return _run(
        network,
        algorithm,
        max_rounds=max_rounds,
        sanitize=sanitize,
        sanitize_mode=sanitize_mode,
        tracer=tracer,
    )


def refute(
    algorithm: Union[ECWeightAlgorithm, DistributedAlgorithm],
    delta: int,
    *,
    claimed_rounds: int = 1,
    chain: Optional[str] = None,
    deep_verify: bool = False,
    tracer=None,
) -> Refutation:
    """Test "``algorithm`` computes maximal FM in ``claimed_rounds`` rounds
    on degree-``delta`` EC-graphs" with the Section 4 adversary.

    ``algorithm`` is either a ready EC-weight algorithm (``chain=None``) or
    a base state machine to stack the named simulation chain in front of:
    ``chain="ec"`` presents it directly, ``"po"``/``"oi"``/``"id"`` add the
    Section 5 simulations (see :func:`repro.core.theorem.chain_from_name`).
    Returns a machine-checked :class:`Refutation`.
    """
    if chain is not None:
        algorithm = chain_from_name(chain, t=delta, base=algorithm)
    return _theorem_refute(
        algorithm, claimed_rounds, delta, deep_verify=deep_verify, tracer=tracer
    )


def sweep(
    grid=None,
    *,
    workers: int = 0,
    out: Optional[str] = None,
    resume: bool = False,
    tracer=None,
    faults=None,
    cell_timeout: Optional[float] = None,
    retries: int = 1,
    max_restarts: int = 2,
    progress=None,
) -> SweepReport:
    """Run a grid of experiment cells through the parallel engine.

    ``grid`` is a :class:`repro.engine.GridSpec`, a mapping accepted by
    :meth:`GridSpec.from_mapping`, or ``None`` for the paper's E1 grid.
    Returns a frozen :class:`SweepReport`; see :mod:`repro.engine` for
    sharding, caching and resume semantics.

    ``workers`` picks where the shards run: ``workers >= 2`` spawns a
    process pool of that width, anything less runs inline, one shard after
    another.

    ``faults`` replays a deterministic failure scenario (a
    :class:`repro.engine.FaultPlan`, its dict form, or a path to its JSON
    file); ``cell_timeout``/``retries``/``max_restarts`` bound the per-cell
    watchdog, the retry loop, and dead-worker recovery — see
    ``docs/fault_injection.md``.  ``progress`` attaches a
    :class:`repro.obs.ProgressEmitter` for live heartbeat telemetry; it
    observes the sweep without changing any row.
    """
    from .engine import run_sweep

    result = run_sweep(
        grid,
        workers=workers,
        out_dir=out,
        resume=resume,
        tracer=tracer,
        faults=faults,
        cell_timeout=cell_timeout,
        retries=retries,
        max_restarts=max_restarts,
        progress=progress,
    )
    return SweepReport.from_engine(result)

