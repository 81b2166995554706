"""The process-wide memos and the one bounded table behind them.

Every reuse the adversary ladder and the sweep engine lean on across a
whole process — unfolded and mixed lifts, extracted balls, verified runs
and canonical forms — is a :class:`Memo`: a least-recently-used table of
at most ``limit`` entries.  The five memos are module constants, listed
by hand in :func:`reset_memos`: a registry filled by ``Memo.__init__``
would mutate module state, which the ``effect-escape`` lint rule forbids
in model packages.  Each is keyed by content (a kernel digest, a loop id,
a fingerprint), so an entry is a pure function of its key and can never
go stale; a memo only ever saves recomputation.  :func:`reset_memos`
empties them all, together with the SoA canonicalisation plan cache,
which is how tests stand for a fresh process.

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

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional

__all__ = ["Memo", "UNFOLDS", "MIXES", "BALLS", "RUNS", "FORMS", "reset_memos"]


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


#: ``unfold_loop``: ``(graph digest, loop eid)`` -> ``(frozen kernel,
#: covering map, new eid)``.  Loop ids are stable across rebuilds of the
#: same graph, so the digest and the id name one 2-lift.
UNFOLDS = Memo(4096)

#: ``mix``: ``(G digest, G loop eid, H digest, H loop eid)`` -> ``(frozen
#: kernel, new eid)``, a pure function of both inputs and both loop ids.
MIXES = Memo(4096)

#: ``soa.extract_ball``: ``(parent digest, root, radius)`` -> ``(frozen
#: sub-kernel, BFS distances)``; a ball is a pure function of the parent's
#: labelled structure, the root label and the radius.
BALLS = Memo(8192)

#: ``adversary.checked_run``: ``(algorithm fingerprint, graph digest,
#: require_saturation)`` -> node outputs of a run that passed Lemma-2
#: verification.  A fingerprinted algorithm is a deterministic function of
#: the labelled graph, which the digest identifies.
RUNS = Memo(4096)

#: ``CanonicalFormCache``: ``(read scope, rooted digest)`` -> canonical
#: rooted form.  The digest determines the form; the scope only decides
#: which caches may read the entry.
FORMS = Memo(4096)


def reset_memos() -> None:
    """Empty every process-wide memo and the SoA plan cache.

    The test isolation hook: afterwards the process reuses nothing, as a
    fresh process would.  Counters (such as the plan-hit count) keep
    counting.
    """
    from .soa import _PLANS

    for memo in (UNFOLDS, MIXES, BALLS, RUNS, FORMS):
        memo.clear()
    _PLANS.clear()
