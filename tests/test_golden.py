"""Golden values: the row and form checksums, and the hit-rate floors.

Each value is computed on a grid small enough for tier-1 and compared
exactly (checksums, counts) or against a floor (hit rates).  A change to
any checksum is a change to what the program computes, not noise: if it
is intended, re-pin the value here and say why in CHANGES.md.

* ``sweep.delta_scaling`` — the E1 rows (greedy-by-colour and proposal
  dynamics) for Δ = 3, 4 and 5, one serial sweep per Δ;
* ``cache.hit_scaling`` — the canonical-form cache's hit rate on a cold
  and then a warm on-disk tier;
* ``canonical.microbench`` — the SoA canonicaliser's forms over a fixed
  batch of loopy trees, and the shape-plan cache's recognition rate.

Worker-count byte identity (rows under ``workers=2`` equal the serial
rows) is ``tests/test_executors.py::TestByteIdentity``.  Wall time is
measured at reference scale by ``refbench/`` (``refbench/README.md``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.engine import GridSpec, run_sweep
from repro.engine.cache import ENV_CACHE_DIR
from repro.graphs.families import random_loopy_tree
from repro.graphs.isomorphism import canonical_form_of
from repro.graphs.memo import reset_memos
from repro.graphs.soa import plan_hit_count

ALGORITHMS = ("greedy", "proposal")

#: hit rates may fall this far below today's value before a test fails
HIT_RATE_SLACK = 0.02


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_sha256(rows) -> str:
    """The byte-identity fingerprint of a sweep's result rows."""
    return sha256(json.dumps(list(rows), sort_keys=True, default=str))


@pytest.fixture(scope="module", autouse=True)
def no_ambient_cache():
    """An ambient ``$REPRO_CACHE_DIR`` would warm the sweeps unpredictably."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(ENV_CACHE_DIR, raising=False)
        yield


class TestDeltaScaling:
    """The E1 grid for Δ = 3, 4, 5: the rows that witness Theorem 1."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        return [
            run_sweep(GridSpec(algorithms=ALGORITHMS, deltas=(delta,)))
            for delta in (3, 4, 5)
        ]

    def test_rows_sha256(self, sweeps):
        rows = sorted(
            (row for sweep in sweeps for row in sweep.rows),
            key=lambda row: row.get("key", ""),
        )
        assert len(rows) == 6
        assert not [row["key"] for row in rows if row.get("status") == "refuted"]
        assert rows_sha256(rows) == (
            "e9beaacf4714dded2829e5fea942e6422bd5299b2de53c3e78ebbaa7732e37a1"
        )

    def test_cache_hit_rate_floor(self, sweeps):
        hits = sum(sweep.cache.hits for sweep in sweeps)
        lookups = sum(sweep.cache.lookups for sweep in sweeps)
        assert hits / lookups >= 21 / 36 - HIT_RATE_SLACK


class TestCacheHitScaling:
    """Two sweeps over Δ = 3, 4 against one fresh on-disk tier."""

    def test_cold_and_warm_hit_rate_floors(self, tmp_path):
        grid = GridSpec(algorithms=ALGORITHMS, deltas=(3, 4))
        cold = run_sweep(grid, cache_dir=tmp_path)
        warm = run_sweep(grid, cache_dir=tmp_path)
        assert cold.cache.hit_rate >= 13 / 20 - HIT_RATE_SLACK
        assert warm.cache.hit_rate >= 1.0 - HIT_RATE_SLACK
        assert rows_sha256(warm.rows) == rows_sha256(cold.rows)


class TestCanonicalMicrobench:
    """Every root of eight loopy trees of 24 nodes, through the SoA kernel."""

    def test_forms_sha256_and_warm_plan_hit_rate(self):
        graphs = [random_loopy_tree(24, 2, seed=seed) for seed in range(8)]
        reset_memos()
        forms = [canonical_form_of(g, v) for g in graphs for v in g.nodes()]
        assert len(forms) == 192
        assert sha256(repr(forms)) == (
            "a1fee25de7010cd00a5c5c8e1cf1bbdb127960431296149b6175919a2e6c6400"
        )
        # a repeat must resolve every root shape from the plan cache
        before = plan_hit_count()
        assert [canonical_form_of(g, v) for g in graphs for v in g.nodes()] == forms
        assert (plan_hit_count() - before) / len(forms) >= 1.0 - HIT_RATE_SLACK
