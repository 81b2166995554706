"""Tests for the process-wide run memo (repro.graphs.memo)."""

from __future__ import annotations

import pytest

from repro.engine import CanonicalFormCache
from repro.engine.grid import ALGORITHMS, Cell, run_cell
from repro.graphs import soa
from repro.graphs.isomorphism import use_canonical_cache
from repro.graphs.memo import RUNS, Memo, reset_memos
from repro.matching.naive import ZeroFM
from repro.obs import Tracer, trace_document
from tests.test_golden import run_memo_counts

#: the fields of an ``ok`` row the run memo stores
VERDICT_FIELDS = {"status", "witness_depth", "expected_depth", "final_graph_nodes", "all_valid"}


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
        with use_canonical_cache(CanonicalFormCache()):
            run_cell(Cell("greedy", 4))
        assert len(RUNS) > 0
        assert soa._PLANS.cons
        reset_memos()
        assert len(RUNS) == 0
        assert soa._PLANS.cons == {}


def run_memo_evictions(tracer) -> list:
    """The values of the tracer's ``adversary.run_memo_evictions`` counters."""
    return [
        row["value"]
        for row in trace_document(tracer)["metrics"]["counters"]
        if row["name"] == "adversary.run_memo_evictions"
    ]


def traced_cell(cell: Cell):
    """Run ``cell`` under a fresh tracer: its row, the tracer, and the
    tracer's ``adversary.run_memo`` counts by outcome."""
    tracer = Tracer()
    row = run_cell(cell, tracer=tracer)
    return row, tracer, run_memo_counts(trace_document(tracer))


class TestRunMemo:
    """The run memo answers a cell at ``(ALGORITHMS[name], chain, delta)``."""

    def test_replica_seed_is_answered_by_one_lookup(self):
        reset_memos()
        first, cold, cold_counts = traced_cell(Cell("greedy", 5, seed=0))
        replica, warm, warm_counts = traced_cell(Cell("greedy", 5, seed=7))
        assert cold_counts == {"miss": 1}
        assert warm_counts == {"hit": 1}
        assert cold.find("adversary.run") and not warm.find("adversary.run")
        (cell_span,) = warm.find("engine.cell")
        assert cell_span.attrs["memo"] is True
        assert replica == dict(first, seed=7, key="greedy/d5/ec/s7")
        assert list(replica) == list(first)  # same key order, so same bytes

    def test_other_delta_or_algorithm_misses(self):
        reset_memos()
        run_cell(Cell("greedy", 5))
        for cell in (Cell("greedy", 6), Cell("proposal", 5)):
            _, _, counts = traced_cell(cell)
            assert counts == {"miss": 1}, cell

    def test_chain_replica_is_answered_by_one_lookup(self):
        reset_memos()
        first, cold, cold_counts = traced_cell(Cell("proposal", 4, chain="oi"))
        replica, warm, warm_counts = traced_cell(Cell("proposal", 4, chain="oi", seed=3))
        assert first["status"] == "ok"
        assert cold_counts == {"miss": 1}
        assert warm_counts == {"hit": 1}
        assert cold.find("adversary.run") and not warm.find("adversary.run")
        assert replica == dict(first, seed=3, key="proposal/d4/oi/s3")
        # another chain builds another algorithm, so it misses
        _, _, counts = traced_cell(Cell("proposal", 4, chain="po"))
        assert counts == {"miss": 1}

    def test_refuted_verdict_is_never_stored(self):
        reset_memos()
        for seed in (0, 1):
            row, tracer, counts = traced_cell(Cell("zero", 4, seed=seed))
            assert row["status"] == "refuted"
            assert tracer.find("adversary.run")
            assert counts == {"miss": 1}
        assert len(RUNS) == 0

    def test_a_re_registered_name_misses(self, monkeypatch):
        reset_memos()
        assert run_cell(Cell("greedy", 4))["status"] == "ok"
        # another function under the same name: its verdict is its own
        monkeypatch.setitem(ALGORITHMS, "greedy", ZeroFM)
        row, tracer, counts = traced_cell(Cell("greedy", 4, seed=1))
        assert counts == {"miss": 1}
        assert tracer.find("adversary.run")
        assert row["status"] == "refuted"

    def test_evictions_are_counted_apart_from_hits_and_misses(self, monkeypatch):
        reset_memos()
        monkeypatch.setattr(RUNS, "limit", 1)
        _, tracer, counts = traced_cell(Cell("greedy", 3))
        assert counts == {"miss": 1}
        assert run_memo_evictions(tracer) == []  # no eviction, no counter
        _, tracer, counts = traced_cell(Cell("greedy", 4))
        assert counts == {"miss": 1}
        assert run_memo_evictions(tracer) == [1]
        assert len(RUNS) == 1
        _, tracer, counts = traced_cell(Cell("greedy", 3, seed=1))
        assert counts == {"miss": 1}  # evicted, so computed again
        assert run_memo_evictions(tracer) == [1]

    @pytest.mark.parametrize("algorithm", ["greedy", "proposal"])
    def test_stored_values_hold_only_the_verdict(self, algorithm):
        reset_memos()
        for delta in (3, 4, 5):
            run_cell(Cell(algorithm, delta))
        assert len(RUNS) == 3
        for key in RUNS.keys():
            verdict = RUNS.get(key)
            assert set(verdict) == VERDICT_FIELDS
            assert all(type(value) in (str, int, bool) for value in verdict.values())
