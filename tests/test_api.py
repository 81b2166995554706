"""Tests for the public facade (repro.api) and the runtime's keyword-only API."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import api
from repro.engine import smoke_grid
from repro.graphs.families import path_graph
from repro.graphs.ports import po_double_from_ec
from repro.local.runtime import ECNetwork, run, run_rounds
from repro.matching.greedy_color import greedy_color_algorithm
from repro.matching.proposal import ProposalFM


class TestApiRun:
    def test_run_on_ec_graph(self):
        result = api.run(ProposalFM("EC"), path_graph(4))
        assert result.halted
        assert set(result.outputs) == set(path_graph(4).nodes())

    def test_run_on_po_graph(self):
        doubled = po_double_from_ec(path_graph(3))
        result = api.run(ProposalFM("PO"), doubled)
        assert result.halted

    def test_run_on_nx_graph_id_model(self):
        result = api.run(ProposalFM("ID"), nx.path_graph(4))
        assert result.halted

    def test_run_exact_rounds_snapshots(self):
        g = path_graph(4)
        bounded = api.run(ProposalFM("EC"), g, rounds=1)
        assert bounded.rounds <= 1
        assert all(out is not None for out in bounded.outputs.values())

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="^rounds must be non-negative, got -1$"):
            api.run(ProposalFM("EC"), path_graph(4), rounds=-1)

    def test_run_on_prebuilt_network(self):
        network = ECNetwork(path_graph(3), globals_={"delta": 2})
        assert api.run(ProposalFM("EC"), network).halted

    def test_globals_with_network_rejected(self):
        network = ECNetwork(path_graph(3))
        with pytest.raises(ValueError, match="globals"):
            api.run(ProposalFM("EC"), network, globals={"delta": 2})

    def test_sanitize_records_access_log(self):
        result = api.run(ProposalFM("EC"), path_graph(3), sanitize=True)
        assert result.access_log is not None
        assert result.access_log.clean


class TestApiRefute:
    def test_direct_ec_algorithm(self):
        result = api.refute(greedy_color_algorithm(), 4, claimed_rounds=1)
        assert result.kind == "locality-violation"

    def test_chain_defaults_to_proposal(self):
        result = api.refute(None, 3, claimed_rounds=1, chain="po")
        assert result.kind == "locality-violation"
        assert "ProposalFM" in result.algorithm
        assert result.algorithm.startswith("ec<=po")

    def test_consistent_beyond_reach(self):
        result = api.refute(greedy_color_algorithm(), 4, claimed_rounds=9)
        assert result.kind == "consistent"

    def test_unknown_chain(self):
        with pytest.raises(ValueError, match="unknown chain"):
            api.refute(None, 3, chain="qc")

    @pytest.mark.parametrize("chain", [None, "po"])
    def test_negative_claim_rejected(self, chain):
        algorithm = greedy_color_algorithm() if chain is None else None
        with pytest.raises(ValueError, match="claimed_rounds must be >= 0"):
            api.refute(algorithm, 3, claimed_rounds=-3, chain=chain)


class TestApiSweep:
    def test_mapping_grid(self):
        result = api.sweep({"algorithms": "greedy", "deltas": 3})
        assert len(result.rows) == 1
        assert result.rows[0]["status"] == "ok"

    def test_returns_frozen_typed_report(self):
        import dataclasses

        report = api.sweep({"algorithms": "greedy", "deltas": 3})
        assert isinstance(report, api.SweepReport)
        assert isinstance(report.rows, tuple)
        assert report.backend == "inline"
        assert "via the inline backend" in report.summary
        assert 0.0 <= report.cache_hit_rate <= 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.backend = "process"

    @pytest.mark.parametrize(
        ("options", "message"),
        [
            ({"retries": -1}, "retries must be >= 0"),
            ({"workers": -3}, "workers must be >= 1"),
            ({"cell_timeout": -1.0}, "cell_timeout must be positive"),
            ({"max_restarts": -1}, "max_restarts must be >= 0"),
        ],
    )
    def test_bad_execution_options_rejected(self, options, message):
        # retries=-1 used to fail every cell with "RuntimeError: unknown",
        # workers=-3 to run and report "on -3 worker(s)"
        with pytest.raises(ValueError, match=message):
            api.sweep(smoke_grid(), **options)

    def test_workers_zero_is_the_serial_spelling(self):
        report = api.sweep({"algorithms": "greedy", "deltas": 3}, workers=0)
        assert report.backend == "inline" and report.workers == 0

    def test_facade_reexported_at_package_top_level(self):
        import repro

        assert repro.sweep is api.sweep
        assert repro.SweepReport is api.SweepReport
        for name in ("run", "refute", "sweep"):
            assert name in repro.__all__ and name in api.__all__


class TestRuntimeKeywordOnlyOptions:
    """The PR 3 positional-argument shims are gone: keyword-only for real."""

    def test_positional_max_rounds_rejected(self):
        network = ECNetwork(path_graph(3))
        with pytest.raises(TypeError, match="positional"):
            run(network, ProposalFM("EC"), 50)

    def test_positional_run_rounds_extras_rejected(self):
        network = ECNetwork(path_graph(3))
        with pytest.raises(TypeError, match="positional"):
            run_rounds(network, ProposalFM("EC"), 1, False)

    def test_keyword_form_works_without_warnings(self, recwarn):
        network = ECNetwork(path_graph(3))
        result = run(network, ProposalFM("EC"), max_rounds=50)
        assert result.halted
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]

    def test_run_rounds_keyword_form_works(self):
        network = ECNetwork(path_graph(3))
        result = run_rounds(network, ProposalFM("EC"), 1, sanitize=False)
        assert result.rounds <= 1
