"""Counted canonical rooted forms.

The hot path of every adversary run is canonicalising witness balls
(:func:`repro.graphs.soa.canonical_form_fast`): each inductive step
canonicalises the radius-``i`` balls around its two witness nodes, read
off graphs that double in size as the ladder climbs.  Many of those forms
recur — the two radius-0 balls of every base case are the same
single-node shape, the G- and H-side balls of a step differ only in node
labels, and a repeated sweep re-canonicalises everything it already saw.

The one canonical-form memo is the canonicaliser's process-wide shape-plan
cache (:mod:`repro.graphs.soa`): every subtree's form is hash-consed by its
colour shape, so a form computed once serves every later lookup of the same
shape, whichever sweep, shard or service job asks and whatever its node
labels.  A shape determines its form, so an entry never goes stale.

:class:`CanonicalFormCache` is the counted way in.  Installed into
:mod:`repro.graphs.isomorphism` for a shard, it counts a lookup as a hit
when the root's shape was already consed, so the whole form was reused
rather than built.  Hits and misses are counted both in :class:`CacheStats`
and on the ambient :mod:`repro.obs` tracer (``engine.canonical_cache``
counter, ``outcome`` label), so a merged sweep trace reports the realised
hit-rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Hashable, Optional, Tuple

from ..graphs.multigraph import ECGraph
from ..graphs.soa import consed_canonical_form
from ..obs.tracer import current_tracer

Node = Hashable

__all__ = [
    "CacheStats",
    "CanonicalFormCache",
]


@dataclass
class CacheStats:
    """Counters describing one cache's life so far."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["lookups"] = self.lookups
        payload["hit_rate"] = self.hit_rate
        # always 0, and no counter: the benchmark harness reads these keys on
        # every traced run (refbench/harness/batch.py and service.py), so
        # they stay until the next change to the benchmark drops them
        payload["plan_hits"] = payload["disk_hits"] = payload["shared_hits"] = 0
        return payload

    @classmethod
    def merged(cls, dicts) -> "CacheStats":
        """Aggregate several ``as_dict`` payloads (one per worker).

        The merge iterates the dataclass's *declared* fields rather than a
        hand-maintained key list: adding a counter can no longer silently
        drop it from merged totals.  Counters a payload lacks default to 0,
        so the merge is total-preserving and associative: merging partial
        merges equals merging the underlying payloads in one pass.
        """
        total = cls()
        for d in dicts:
            if isinstance(d, CacheStats):
                d = d.as_dict()
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + d.get(f.name, 0))
        return total


@dataclass
class CanonicalFormCache:
    """Counted access to the canonicaliser's process-wide shape-plan cache.

    Every instance shares that one memo: an instance hits any root shape
    some lookup in this process consed.  ``stats`` counts this instance's
    lookups.
    """

    stats: CacheStats = field(default_factory=CacheStats)

    # ------------------------------------------------------------------
    # the public entry point installed into repro.graphs.isomorphism
    # ------------------------------------------------------------------
    def canonical_form(self, g: ECGraph, root: Node, radius: Optional[int] = None) -> Tuple:
        """The canonical rooted form of ``(g, root)``, counted.

        With a ``radius``, the form of the radius-``radius`` ball around
        ``root``, read off ``g`` itself.  A hit is a root shape the plan
        cache already held, so the whole form was reused; a miss built at
        least the root's entry.
        """
        form, hit = consed_canonical_form(g, root, radius)
        if hit:
            self.stats.hits += 1
        else:
            self.stats.misses += 1
        current_tracer().metrics.counter(
            "engine.canonical_cache", outcome="hit" if hit else "miss"
        ).inc()
        return form
