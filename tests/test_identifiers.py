"""Tests for identifier machinery (repro.local.identifiers)."""

from __future__ import annotations

import pytest

from repro.local.identifiers import (
    assign_ids_respecting_order,
    order_respecting_assignments,
    relabel_single_node,
    sparse_subset,
)


class TestAssign:
    def test_order_respected(self):
        phi = assign_ids_respecting_order(["b", "a", "c"], [30, 10, 20])
        assert phi == {"b": 10, "a": 20, "c": 30}

    def test_pool_too_small(self):
        with pytest.raises(ValueError):
            assign_ids_respecting_order(["a", "b"], [1])

    def test_repeated_identifier_rejected(self):
        """Two nodes sharing an identifier would break phi(v) < phi(u)."""
        with pytest.raises(ValueError, match="identifier 7 appears more than once"):
            assign_ids_respecting_order(["a", "b", "c"], [7, 7, 9])


class TestSparse:
    def test_every_mplus1th(self):
        ids = list(range(100))
        j = sparse_subset(ids, m=9)
        assert j == list(range(0, 100, 10))

    def test_gap_guarantee(self):
        """Between consecutive kept identifiers there are >= m dropped ones
        (the Lemma 7 interpolation slack)."""
        ids = [3, 7, 9, 14, 20, 22, 31, 40, 41, 55]
        m = 2
        kept = sparse_subset(ids, m)
        for a, b in zip(kept, kept[1:]):
            between = [i for i in ids if a < i < b]
            assert len(between) >= m

    def test_m_zero_keeps_all(self):
        assert sparse_subset([5, 1, 3], 0) == [1, 3, 5]

    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must be >= 0"):
            sparse_subset(range(10), m)

    def test_repeated_identifier_rejected(self):
        """A repeat leaves no dropped identifier between two kept ones."""
        with pytest.raises(ValueError, match="identifier 1 appears more than once"):
            sparse_subset([1, 1, 2], 1)


class TestEnumerate:
    def test_assignments_are_order_respecting(self):
        nodes = ["x", "y"]
        for phi in order_respecting_assignments(nodes, range(10), limit=20):
            assert phi["x"] < phi["y"]

    def test_limit_respected(self):
        out = list(order_respecting_assignments(["a"], range(100), limit=7))
        assert len(out) == 7

    def test_distinct_assignments(self):
        out = list(order_respecting_assignments(["a", "b"], range(6), limit=100))
        assert len(out) == 15  # C(6, 2)
        assert len({tuple(sorted(p.items())) for p in out}) == 15

    def test_repeated_identifier_rejected(self):
        """A repeat would yield non-injective and duplicate assignments."""
        with pytest.raises(ValueError, match="identifier 3 appears more than once"):
            list(order_respecting_assignments(["a", "b"], [3, 3, 4], limit=5))


class TestRelabelSingle:
    def test_valid_move(self):
        nodes = ["a", "b", "c"]
        phi = {"a": 10, "b": 20, "c": 30}
        phi2 = relabel_single_node(phi, "b", 25, nodes)
        assert phi2["b"] == 25 and phi2["a"] == 10

    def test_order_break_rejected(self):
        nodes = ["a", "b", "c"]
        phi = {"a": 10, "b": 20, "c": 30}
        with pytest.raises(ValueError):
            relabel_single_node(phi, "b", 35, nodes)

    def test_collision_rejected(self):
        nodes = ["a", "b"]
        phi = {"a": 10, "b": 20}
        with pytest.raises(ValueError):
            relabel_single_node(phi, "b", 10, nodes)


class TestInterpolation:
    """Lemma 7's chain: assignments connected by single-node moves."""

    def _check_chain(self, chain, nodes):
        from repro.local.identifiers import interpolate_assignments

        for phi in chain:
            values = [phi[v] for v in nodes]
            assert all(a < b for a, b in zip(values, values[1:]))
        for a, b in zip(chain, chain[1:]):
            assert sum(1 for v in nodes if a[v] != b[v]) == 1

    def test_simple_chain(self):
        from repro.local.identifiers import interpolate_assignments

        nodes = ["a", "b", "c"]
        phi1 = {"a": 1, "b": 5, "c": 9}
        phi2 = {"a": 2, "b": 6, "c": 30}
        chain = interpolate_assignments(phi1, phi2, nodes)
        assert chain[0] == phi1 and chain[-1] == phi2
        self._check_chain(chain, nodes)

    def test_crossing_values(self):
        from repro.local.identifiers import interpolate_assignments

        nodes = ["a", "b", "c", "d"]
        phi1 = {"a": 10, "b": 20, "c": 30, "d": 40}
        phi2 = {"a": 1, "b": 2, "c": 3, "d": 4}
        chain = interpolate_assignments(phi1, phi2, nodes)
        assert chain[-1] == phi2
        self._check_chain(chain, nodes)

    def test_identical_assignments(self):
        from repro.local.identifiers import interpolate_assignments

        nodes = ["x", "y"]
        phi = {"x": 1, "y": 2}
        chain = interpolate_assignments(phi, dict(phi), nodes)
        assert chain == [phi]

    def test_non_monotone_rejected(self):
        import pytest
        from repro.local.identifiers import interpolate_assignments

        nodes = ["a", "b"]
        with pytest.raises(ValueError):
            interpolate_assignments({"a": 5, "b": 1}, {"a": 1, "b": 2}, nodes)

    def test_random_pairs(self):
        import random
        from repro.local.identifiers import interpolate_assignments

        rng = random.Random(3)
        nodes = list("abcdef")
        for _ in range(20):
            v1 = sorted(rng.sample(range(100), len(nodes)))
            v2 = sorted(rng.sample(range(100), len(nodes)))
            phi1 = dict(zip(nodes, v1))
            phi2 = dict(zip(nodes, v2))
            chain = interpolate_assignments(phi1, phi2, nodes)
            assert chain[-1] == phi2
            self._check_chain(chain, nodes)
