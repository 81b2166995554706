"""Declarative job grids for the sweep engine.

A :class:`GridSpec` names the experiment axes — algorithm × Delta ×
simulation chain × seed — without running anything; :func:`expand` turns it
into the deterministic, sorted list of :class:`Cell` jobs the engine shards
across workers.  Each cell owns a stable string ``key`` (its identity in
result shards, resume bookkeeping and trace attribution) and knows how to
build its algorithm (:func:`build_cell_algorithm`) and execute itself
(:func:`run_cell`, or :func:`compute_cell` past the run memo).

Cells are deliberately tiny value objects (round-trippable through
``as_dict``/``from_dict``) so they cross process boundaries cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Set, Tuple, Union

from ..core.adversary import run_adversary
from ..core.witness import AlgorithmFailure
from ..graphs.memo import RUNS
from ..matching.greedy_color import greedy_color_algorithm
from ..matching.naive import DegreeSplitFM, ZeroFM
from ..matching.proposal import proposal_algorithm
from ..obs.tracer import current_tracer

__all__ = [
    "ALGORITHMS",
    "CHAINS",
    "Cell",
    "GridSpec",
    "build_cell_algorithm",
    "compute_cell",
    "e1_grid",
    "expand",
    "make_algorithm",
    "run_cell",
    "smoke_grid",
]

#: name -> factory for every sweepable EC algorithm (also the CLI registry)
ALGORITHMS = {
    "greedy": greedy_color_algorithm,
    "proposal": proposal_algorithm,
    "zero": ZeroFM,
    "degree-split": DegreeSplitFM,
}

#: the Section 5 simulation chains a cell may run its algorithm through;
#: chains deeper than "ec" wrap the proposal dynamics (the one shipped
#: machine with PO and ID presentations)
CHAINS = ("ec", "po", "oi", "id")


def make_algorithm(name: str):
    """Instantiate a registered algorithm by name."""
    return _factory(name)()


def _factory(name: str):
    """The factory registered under ``name``."""
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")
    return ALGORITHMS[name]


@dataclass(frozen=True, order=True)
class Cell:
    """One grid point: run ``algorithm`` through ``chain`` at degree ``delta``."""

    algorithm: str
    delta: int
    chain: str = "ec"
    seed: int = 0

    @property
    def key(self) -> str:
        """Stable identity used by shards, resume and trace attribution."""
        return f"{self.algorithm}/d{self.delta}/{self.chain}/s{self.seed}"

    def as_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "algorithm": self.algorithm,
            "delta": self.delta,
            "chain": self.chain,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Cell":
        return cls(
            algorithm=str(data["algorithm"]),
            delta=int(data["delta"]),
            chain=str(data.get("chain", "ec")),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class GridSpec:
    """A declarative sweep grid: the cross product of its axes."""

    algorithms: Tuple[str, ...] = ("greedy", "proposal")
    deltas: Tuple[int, ...] = (3, 4, 5, 6, 7, 8)
    chains: Tuple[str, ...] = ("ec",)
    seeds: Tuple[int, ...] = (0,)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "GridSpec":
        """Build a spec from a plain dict (the CLI/JSON form).

        Accepts singular scalars as well as sequences for each axis.
        """

        def axis(name: str, default: Sequence) -> Tuple:
            value = data.get(name, default)
            if isinstance(value, (str, int)):
                value = (value,)
            return tuple(value)

        return cls(
            algorithms=axis("algorithms", cls.algorithms),
            deltas=tuple(int(d) for d in axis("deltas", cls.deltas)),
            chains=axis("chains", cls.chains),
            seeds=tuple(int(s) for s in axis("seeds", cls.seeds)),
        )

    def as_dict(self) -> dict:
        return {
            "algorithms": list(self.algorithms),
            "deltas": list(self.deltas),
            "chains": list(self.chains),
            "seeds": list(self.seeds),
        }


def e1_grid() -> GridSpec:
    """The E1 reproduction grid: both upper-bound algorithms, Delta 3..8."""
    return GridSpec(algorithms=("greedy", "proposal"), deltas=(3, 4, 5, 6, 7, 8))


def smoke_grid() -> GridSpec:
    """A two-algorithm mini-grid for CI smoke runs (seconds, not minutes)."""
    return GridSpec(algorithms=("greedy", "proposal"), deltas=(3, 4))


def expand(grid: Union[GridSpec, Mapping]) -> List[Cell]:
    """The grid's cells, validated, each once, in deterministic sorted order.

    A repeated axis value names its cells once, so no cell is computed or
    counted twice; an empty axis raises ``ValueError``, since a 0-cell
    sweep would finish ``done`` having checked nothing.
    """
    if not isinstance(grid, GridSpec):
        grid = GridSpec.from_mapping(grid)
    for axis, values in grid.as_dict().items():
        if not values:
            raise ValueError(f"grid axis {axis!r} is empty")
    cells: Set[Cell] = set()
    for algorithm in grid.algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}"
            )
        for chain in grid.chains:
            if chain not in CHAINS:
                raise ValueError(f"unknown chain {chain!r}; choose from {CHAINS}")
            if chain != "ec" and algorithm != "proposal":
                raise ValueError(
                    f"chain {chain!r} wraps the proposal dynamics; "
                    f"algorithm {algorithm!r} only runs on the 'ec' chain"
                )
            for delta in grid.deltas:
                if delta < 2:
                    raise ValueError("the construction needs delta >= 2")
                for seed in grid.seeds:
                    cells.add(Cell(algorithm, delta, chain, seed))
    return sorted(cells)


def build_cell_algorithm(cell: Cell):
    """The EC-weight algorithm a cell runs the adversary against."""
    if cell.chain == "ec":
        return make_algorithm(cell.algorithm)
    from ..core.theorem import chain_from_name

    return chain_from_name(cell.chain, t=cell.delta)


def run_cell(cell: Cell, tracer=None) -> dict:
    """Execute one cell, answered from the run memo when it can be.

    The run memo :data:`~repro.graphs.memo.RUNS` holds an ``ok`` verdict
    under what builds the cell: its registered factory
    ``ALGORITHMS[cell.algorithm]`` (the function object itself), its chain
    and its Δ.  The construction never reads the seed, and every registered
    algorithm is deterministic (rows are pinned by ``rows_sha256``), so a
    replica seed, a repeated sweep or a warm service job is one lookup,
    with no ``adversary.run`` span and ``memo=True`` on the ``engine.cell``
    span.  The key needs no version: the memo never leaves its process,
    the code behind a factory cannot change within one, and a name
    re-registered in ``ALGORITHMS`` is another function, so it misses.
    Every cell counts ``adversary.run_memo`` (``outcome`` ``hit`` or
    ``miss``); a refuted verdict is never stored, so it is recomputed.
    Otherwise the row is :func:`compute_cell`'s.  A stored verdict that
    pushed older ones out of the bounded memo adds their number to
    ``adversary.run_memo_evictions``, a counter that appears only once
    something was evicted.
    """
    tracer = tracer if tracer is not None else current_tracer()
    recipe = (_factory(cell.algorithm), cell.chain, cell.delta)
    verdict = RUNS.get(recipe)
    tracer.metrics.counter("adversary.run_memo", outcome="miss" if verdict is None else "hit").inc()
    if verdict is None:
        row = compute_cell(cell, tracer=tracer)
        if row["status"] == "ok":
            evicted = RUNS.put(recipe, {field: row[field] for field in _VERDICT_FIELDS})
            if evicted:
                tracer.metrics.counter("adversary.run_memo_evictions").inc(evicted)
        return row
    with _cell_span(tracer, cell) as span:
        span.set(status="ok", witness_depth=verdict["witness_depth"], memo=True)
    return dict(cell.as_dict(), key=cell.key, **verdict)


#: the fields of an ``ok`` row the run memo stores, in row order
_VERDICT_FIELDS = ("status", "witness_depth", "expected_depth", "final_graph_nodes", "all_valid")


def compute_cell(cell: Cell, tracer=None) -> dict:
    """Compute one cell's row: the Section 4 adversary at the cell's grid point.

    Returns a deterministic result row — no wall-clock quantities — so a
    parallel sweep's rows are byte-identical to the serial baseline's.
    An :class:`AlgorithmFailure` becomes a row with ``status="refuted"``
    and the certificate message instead of propagating out of the worker.
    Reads and writes no result memo (only the shape-keyed plan cache of
    the canonicaliser lies below it): it is the independent recomputation
    that :func:`~repro.engine.pool.verify_store` checks a store against.
    """
    tracer = tracer if tracer is not None else current_tracer()
    algorithm = build_cell_algorithm(cell)
    with _cell_span(tracer, cell) as span:
        row = dict(cell.as_dict(), key=cell.key)
        try:
            witness = run_adversary(algorithm, cell.delta, tracer=tracer)
        except AlgorithmFailure as failure:
            span.set(status="refuted")
            row.update(status="refuted", failure=str(failure))
            return row
        top = witness.steps[-1]
        span.set(status="ok", witness_depth=witness.achieved_depth)
        row.update(
            status="ok",
            witness_depth=witness.achieved_depth,
            expected_depth=cell.delta - 2,
            final_graph_nodes=top.graph_g.num_nodes() + top.graph_h.num_nodes(),
            all_valid=witness.all_valid,
        )
        return row


def _cell_span(tracer, cell: Cell):
    """The ``engine.cell`` span of one cell, computed or answered."""
    return tracer.span(
        "engine.cell",
        key=cell.key,
        algorithm=cell.algorithm,
        delta=cell.delta,
        chain=cell.chain,
        seed=cell.seed,
    )
