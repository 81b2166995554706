"""The process-wide run memo and the bounded table behind it.

One reuse pays across a whole process, and it is a :class:`Memo`: a
least-recently-used table of at most ``limit`` entries.  :data:`RUNS`
answers a repeated sweep cell (a replica seed, a repeated sweep, a warm
service job) with its stored verdict.  It is keyed by what determines its
value, a cell's recipe, so an entry is a pure function of its key and can
never go stale; the memo only ever saves recomputation.  Canonical forms
are memoized one layer down, by the SoA canonicaliser's shape-plan cache
(:mod:`repro.graphs.soa`), keyed by colour shape.  :func:`reset_memos`
empties both, which is how tests stand for a fresh process.

Lifts, mixes and balls are not memoized: within one construction they
almost never repeat, and holding every one of them alive for the life of
the process cost more memory than the recomputation it saved
(``docs/graph_kernel.md``).

Memos are shared by every thread in the process: the service's job
threads and a watchdog-abandoned cell attempt still running beside its
retry.  No memo takes a lock (model packages may not import
``threading``); instead every change to a table is a single
``OrderedDict`` call, which runs atomically under the interpreter lock,
and no memo keeps a shared counter.  Racing callers can at worst refresh
an entry late or evict one extra, never tear a table or lose a count;
:meth:`Memo.put` returns how many entries it evicted, so each caller
counts its own evictions.
"""

# repro: state

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional

from .soa import _PLANS

__all__ = ["Memo", "RUNS", "reset_memos"]


class Memo:
    """A bounded least-recently-used table, safe under racing threads.

    Values must not be ``None`` (a ``None`` lookup means a miss), and a
    caller that may mutate what it got back copies it: a memo hands out
    the stored object itself.
    """

    __slots__ = ("limit", "_entries")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        value = self._entries.get(key)
        if value is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:  # evicted meanwhile: the value is still right
                pass
        return value

    def put(self, key: Hashable, value: Any) -> int:
        """Store ``value``; returns how many older entries made room for it."""
        entries = self._entries
        entries[key] = value
        try:
            entries.move_to_end(key)
        except KeyError:  # evicted meanwhile by a racing put
            pass
        evicted = 0
        while len(entries) > self.limit:
            try:
                entries.popitem(last=False)
            except KeyError:  # a racing put emptied it first
                break
            evicted += 1
        return evicted

    def keys(self) -> List[Hashable]:
        """A snapshot of the keys, least recently used first."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


#: ``engine.grid.run_cell``: ``(registered factory, chain, delta)`` -> the
#: verdict fields of an ``ok`` row.  The construction is a deterministic
#: function of what builds the cell, its factory function object, chain
#: and Delta; a cell's seed never enters it.  A factory object lives and
#: dies with its process, as does this memo.
RUNS = Memo(4096)


def reset_memos() -> None:
    """Empty the run memo and the SoA plan cache.

    The test isolation hook: afterwards the process reuses nothing, as a
    fresh process would.
    """
    RUNS.clear()
    _PLANS.clear()
