"""Tests for the process-wide memos (repro.graphs.memo)."""

from __future__ import annotations

from repro.core.adversary import run_adversary
from repro.engine import CanonicalFormCache
from repro.graphs import soa
from repro.graphs.isomorphism import use_canonical_cache
from repro.graphs.memo import BALLS, FORMS, MIXES, RUNS, UNFOLDS, Memo, reset_memos
from repro.matching.greedy_color import greedy_color_algorithm

MEMOS = (UNFOLDS, MIXES, BALLS, RUNS, FORMS)


class TestMemo:
    def test_racing_threads_lose_no_entry_or_eviction(self, race):
        tier = Memo(limit=64)
        threads, per_thread = 8, 3000
        evicted = [0] * threads
        wrong = []

        def hammer(index):
            for i in range(per_thread):
                key = ("scope", f"{index}:{i}")
                evicted[index] += tier.put(key, (index, i))
                probe = ("scope", f"{index}:{i // 2}")
                form = tier.get(probe)
                if form is not None and form != (index, i // 2):
                    wrong.append((probe, form))

        race(hammer, threads)
        assert wrong == []
        # every entry written is either still held or was evicted exactly once
        assert sum(evicted) + len(tier) == threads * per_thread
        assert len(tier) <= tier.limit


class TestResetMemos:
    def test_empties_every_memo_and_the_plan_cache(self):
        reset_memos()
        with use_canonical_cache(CanonicalFormCache(use_disk=False)):
            run_adversary(greedy_color_algorithm(), 4)
        assert all(len(memo) > 0 for memo in MEMOS)
        assert soa._PLANS.cons
        reset_memos()
        assert [len(memo) for memo in MEMOS] == [0] * len(MEMOS)
        assert soa._PLANS.cons == {}
