"""The four workloads and how each turns the benchmark seed into inputs.

Batch workloads map the seed onto the grid's ``seeds`` axis.  The
construction ignores that axis, so the work is the same for every seed
while cell keys and row checksums change.  The service workload draws its
whole job schedule from the seed.  Why each workload exists is in the
README next to this package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

#: service jobs both tenants finish per second on the reference host (2 vCPU
#: Xeon, 2026); with ``BatchWorkload.sweep_s`` it turns ``--seconds`` into a
#: fixed amount of work, so wall time measures the program, not the clock
JOBS_PER_SECOND = 9.0


@dataclass(frozen=True)
class BatchWorkload:
    """One ``repro.api.sweep`` call per sample, in a fresh interpreter."""

    name: str
    algorithms: Tuple[str, ...]
    deltas: Tuple[int, ...]
    chains: Tuple[str, ...]
    replicas: int
    workers: int
    #: seconds one sweep takes on the reference host (see JOBS_PER_SECOND)
    sweep_s: float

    def samples(self, seconds: float) -> int:
        """Sweeps in a run of ``seconds``: a fixed count, so every run does
        the same work however fast the host or the program is."""
        return max(1, round(seconds / self.sweep_s))

    def seeds(self, seed: int) -> List[int]:
        return [seed + i for i in range(self.replicas)]

    def grid(self, seed: int) -> Dict[str, list]:
        return {
            "algorithms": list(self.algorithms),
            "deltas": list(self.deltas),
            "chains": list(self.chains),
            "seeds": self.seeds(seed),
        }

    @property
    def cells(self) -> int:
        return len(self.algorithms) * len(self.deltas) * len(self.chains) * self.replicas


@dataclass(frozen=True)
class ServiceWorkload:
    """Closed-loop tenants submitting single-cell grids to ``repro serve-api``.

    Every tenant walks the deck of all (algorithm, Δ) cells a fixed number
    of times, in its own seeded order, reshuffled each time round, so every
    seed yields the same mix of work in a different order.  Each job gets a fresh seeded
    ``seeds`` value: a new cell key whose compute the server's memos
    already hold after warm-up.
    """

    name: str
    algorithms: Tuple[str, ...]
    deltas: Tuple[int, ...]
    tenants: int

    def deck(self) -> List[Tuple[str, int]]:
        return [(a, d) for a in self.algorithms for d in self.deltas]

    def warmup(self, seed: int) -> List[Dict[str, list]]:
        """Every distinct cell of the schedule once (the untimed warm-up tenant)."""
        return [_grid(a, d, seed) for a, d in self.deck()]

    def rounds(self, seconds: float, min_jobs: int) -> int:
        """Times each tenant walks the deck: about ``seconds`` of work at
        ``JOBS_PER_SECOND``, and never fewer than ``min_jobs`` jobs in all."""
        per_round = len(self.deck()) * self.tenants
        return max(math.ceil(min_jobs / per_round), round(seconds * JOBS_PER_SECOND / per_round))

    def schedule(self, seed: int, tenant: int, rounds: int) -> List[Dict[str, list]]:
        """Tenant ``tenant``'s job sequence for ``seed``: ``rounds`` shuffled decks."""
        rng = random.Random(f"refbench-service:{seed}:{tenant}")
        deck = self.deck()
        jobs = []
        for _ in range(rounds):
            rng.shuffle(deck)
            jobs += [_grid(a, d, rng.randrange(1_000_000)) for a, d in deck]
        return jobs


def _grid(algorithm: str, delta: int, seed: int) -> Dict[str, list]:
    return {"algorithms": [algorithm], "deltas": [delta], "chains": ["ec"], "seeds": [seed]}


Workload = Union[BatchWorkload, ServiceWorkload]

WORKLOADS: Dict[str, Workload] = {
    "ladder": BatchWorkload("ladder", ("greedy", "proposal"), (12, 13), ("ec",), 1, 0, 10.5),
    "chain": BatchWorkload("chain", ("proposal",), (4,), ("po", "oi", "id"), 2, 0, 9.0),
    "service": ServiceWorkload("service", ("greedy", "proposal"), tuple(range(5, 12)), 2),
    "ladder-w2": BatchWorkload("ladder-w2", ("greedy", "proposal"), (13,), ("ec",), 2, 2, 9.5),
}
