"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main

#: every verb's arguments as (option strings, or the dest of a positional;
#: default; choices), in declaration order, read from build_parser(): the
#: surface a refactor of the parser must not change
SURFACE = {
    "adversary": [
        (("--delta",), 5, None),
        (("--algorithm",), "greedy", None),
        (("--deep-verify",), False, None),
    ],
    "cover": [
        (("--family",), "random", None),
        (("--n",), 20, None),
        (("--delta",), 4, None),
        (("--seed",), 0, None),
        (("--algorithm",), "greedy", None),
    ],
    "exhaustive": [
        (("--delta",), 3, None),
        (("--grid-denominator",), 6, None),
    ],
    "lint": [
        (("paths",), ["src"], None),
        (("--json",), None, None),
        (("--sanitize-demo",), False, None),
        (("--baseline",), None, None),
        (("--update-baseline",), None, None),
        (("--sarif",), None, None),
        (("--explain",), None, None),
        (("--effects",), None, None),
    ],
    "order": [
        (("--generators",), 2, None),
        (("--radius",), 2, None),
    ],
    "serve": [
        (("--host",), "127.0.0.1", None),
        (("--port",), 0, None),
        (("--max-requests",), None, None),
    ],
    "serve-api": [
        (("--host",), "127.0.0.1", None),
        (("--port",), 0, None),
        (("--data-dir",), "service-data", None),
        (("--queue-size",), 16, None),
        (("--job-workers",), 1, None),
        (("--rate",), 0.0, None),
        (("--burst",), 4, None),
        (("--workers",), 1, None),
        (("--backend",), None, ["inline", "process", "socket"]),
        (("--hosts",), None, None),
        (("--cell-timeout",), None, None),
        (("--retries",), 1, None),
        (("--max-restarts",), 2, None),
    ],
    "solve": [
        (("--family",), "random", None),
        (("--n",), 20, None),
        (("--delta",), 4, None),
        (("--seed",), 0, None),
        (("--algorithm",), "greedy", None),
    ],
    "sweep": [
        (("--algorithms",), None, None),
        (("--deltas",), None, None),
        (("--seeds",), None, None),
        (("--json",), None, None),
        (("--chain",), "ec", ["ec", "po", "oi", "id"]),
        (("--out",), None, None),
        (("--workers",), 1, None),
        (("--backend",), None, ["inline", "process", "socket"]),
        (("--hosts",), None, None),
        (("--cell-timeout",), None, None),
        (("--retries",), 1, None),
        (("--max-restarts",), 2, None),
        (("--no-cache",), False, None),
        (("--resume",), False, None),
        (("--smoke",), False, None),
        (("--min-hit-rate",), None, None),
        (("--faults",), None, None),
        (("--progress",), None, None),
    ],
    "trace": [
        (("target",), None, ["demo", "adversary", "theorem"]),
        (("--algorithm",), "greedy", None),
        (("--json",), None, None),
        (("--delta",), 5, None),
        (("--chain",), "po", ["ec", "po", "oi", "id"]),
        (("--jsonl",), None, None),
        (("--profile",), False, None),
        (("--top",), 10, None),
        (("--max-depth",), 3, None),
    ],
    "verify": [
        (("--algorithm",), None, None),
        (("--claimed-rounds",), None, None),
        (("--store",), None, None),
        (("--json",), None, None),
        (("--delta",), 5, None),
        (("--chain",), "ec", ["ec", "po", "oi", "id"]),
    ],
}
SURFACE["refute"] = SURFACE["verify"]  # an alias, not a second verb


def subcommands(parser):
    """The verb name -> verb parser map of a ``build_parser()`` parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def verb_surface(verb_parser):
    return [
        (tuple(a.option_strings) or (a.dest,), a.default, None if a.choices is None else list(a.choices))
        for a in verb_parser._actions
        if not isinstance(a, argparse._HelpAction)
    ]


class TestSolve:
    def test_solve_greedy(self, capsys):
        code = main(["solve", "--family", "cycle", "--n", "8", "--algorithm", "greedy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "maximal: True" in out
        assert "accepts" in out

    def test_solve_proposal_on_random(self, capsys):
        code = main([
            "solve", "--family", "random", "--n", "15", "--delta", "4",
            "--algorithm", "proposal",
        ])
        assert code == 0

    def test_solve_zero_fails(self, capsys):
        code = main(["solve", "--family", "path", "--n", "4", "--algorithm", "zero"])
        out = capsys.readouterr().out
        assert code == 1
        assert "maximal: False" in out

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["solve", "--family", "klein-bottle"])

    def test_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["solve", "--algorithm", "oracle"])


class TestAdversary:
    def test_adversary_greedy(self, capsys):
        code = main(["adversary", "--delta", "4", "--algorithm", "greedy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "step 0" in out and "step 2" in out
        assert "Omega(Delta)" in out

    def test_adversary_catches_zero(self, capsys):
        code = main(["adversary", "--delta", "4", "--algorithm", "zero"])
        out = capsys.readouterr().out
        assert code == 1
        assert "incorrect" in out

    def test_deep_verify_flag(self, capsys):
        code = main(["adversary", "--delta", "3", "--algorithm", "greedy", "--deep-verify"])
        assert code == 0


class TestRefute:
    def test_refutes_small_claim(self, capsys):
        code = main(["refute", "--delta", "5", "--algorithm", "greedy", "--claimed-rounds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "isomorphic radius-1" in out

    def test_consistent_claim_exit_code(self, capsys):
        code = main(["refute", "--delta", "4", "--algorithm", "greedy", "--claimed-rounds", "9"])
        assert code == 2


class TestCoverAndOrder:
    def test_cover(self, capsys):
        code = main(["cover", "--family", "regular", "--n", "12", "--delta", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified ratio" in out

    def test_order(self, capsys):
        code = main(["order", "--generators", "2", "--radius", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "e" in out
        assert len(out.strip().splitlines()) == 5  # identity + 4 slot neighbours


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestExhaustive:
    def test_exhaustive_impossible(self, capsys):
        code = main(["exhaustive", "--delta", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "IMPOSSIBLE" in out


class TestSweep:
    def test_smoke_grid_serial(self, capsys):
        code = main(["sweep", "--smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 cells" in out
        assert "hit-rate" in out

    def test_custom_grid_json_to_stdout(self, capsys):
        code = main(["sweep", "--algorithms", "greedy", "--deltas", "3", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["rows"][0]["key"] == "greedy/d3/ec/s0"
        assert payload["cache"]["hits"] > 0

    def test_delta_range_spec(self, capsys):
        code = main(["sweep", "--algorithms", "greedy", "--deltas", "3..4", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert code == 0
        assert [row["delta"] for row in payload["rows"]] == [3, 4]

    def test_out_dir_and_resume(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["sweep", "--smoke", "--out", out_dir]) == 0
        capsys.readouterr()
        assert main(["sweep", "--smoke", "--out", out_dir, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "(0 computed, 4 resumed)" in out

    def test_repeated_delta_is_one_cell(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main([
            "sweep", "--algorithms", "greedy", "--deltas", "3,3", "--out", str(out_dir), "--progress",
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("1 cells (1 computed, 0 resumed)")
        assert len((out_dir / "shard-0.jsonl").read_text().splitlines()) == 1
        events = [json.loads(line) for line in (out_dir / "progress.jsonl").read_text().splitlines()]
        final = events[-1]
        assert final["event"] == "final" and final["done"] == final["total"] == 1

    def test_bad_delta_spec(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--deltas", "three"])

    def test_min_hit_rate_satisfied(self, capsys):
        code = main(["sweep", "--smoke", "--min-hit-rate", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "canonical-cache hit rate" in out

    def test_min_hit_rate_violated(self, capsys):
        # an impossible floor: the guard must flag it and exit non-zero
        code = main(["sweep", "--smoke", "--min-hit-rate", "1.01"])
        out = capsys.readouterr().out
        assert code == 1
        assert "below required" in out

    def test_deep_chain_for_greedy_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--algorithms", "greedy", "--chain", "po"])

    def test_min_hit_rate_with_zero_lookups_is_na(self, capsys):
        # --no-cache records no lookups: the floor must report n/a, not
        # fail CI (and certainly not divide by zero)
        code = main(["sweep", "--smoke", "--no-cache", "--min-hit-rate", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "n/a" in out
        assert "not applied" in out

    @staticmethod
    def _json_payload(out: str) -> dict:
        return json.loads(next(line for line in out.splitlines() if line.startswith("{")))

    def test_min_hit_rate_gate_is_structured_in_json(self, capsys):
        code = main(["sweep", "--smoke", "--min-hit-rate", "0.1", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        gate = self._json_payload(out)["hit_rate_gate"]
        assert gate["applied"] is True and gate["passed"] is True
        assert gate["min_hit_rate"] == 0.1
        assert gate["hit_rate"] > 0.1
        # the human line still prints alongside the JSON
        assert "canonical-cache hit rate" in out

    def test_min_hit_rate_gate_json_null_on_zero_lookups(self, capsys):
        # the n/a branch must be machine-readable too: hit_rate is an
        # explicit null, applied/passed say the floor never ran
        code = main(
            ["sweep", "--smoke", "--no-cache", "--min-hit-rate", "0.5", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        gate = self._json_payload(out)["hit_rate_gate"]
        assert gate == {
            "min_hit_rate": 0.5,
            "hit_rate": None,
            "applied": False,
            "passed": None,
        }
        assert "n/a" in out  # the text path keeps its account

    def test_min_hit_rate_gate_json_violated(self, capsys):
        code = main(["sweep", "--smoke", "--min-hit-rate", "1.01", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        gate = self._json_payload(out)["hit_rate_gate"]
        assert gate["applied"] is True and gate["passed"] is False

    def test_json_without_floor_has_no_gate_field(self, capsys):
        code = main(["sweep", "--smoke", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hit_rate_gate" not in self._json_payload(out)

    def test_faults_plan_replayed(self, tmp_path, capsys):
        from repro.engine import Fault, FaultPlan

        plan_path = FaultPlan(
            faults=(Fault(kind="raise-worker", cell="greedy/d4/ec/s0"),)
        ).dump(tmp_path / "plan.json")
        code = main(["sweep", "--smoke", "--faults", str(plan_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "recovered in 1 restart(s)" in out

    def test_unsurvivable_faults_name_the_cell(self, tmp_path, capsys):
        from repro.engine import Fault, FaultPlan

        plan = FaultPlan(
            faults=(
                Fault(kind="raise-worker", cell="greedy/d3/ec/s0", attempt=None, times=99),
            )
        )
        plan_path = plan.dump(tmp_path / "plan.json")
        code = main([
            "sweep", "--smoke", "--faults", str(plan_path),
            "--max-restarts", "1", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "greedy/d3/ec/s0" in err


class TestExecutionOptionsGroup:
    """The execution-control vocabulary shared by ``sweep`` and ``serve-api``."""

    @pytest.mark.parametrize("command", ["sweep", "serve-api"])
    def test_workers_zero_rejected(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "0"])
        assert f"repro {command}: workers must be >= 1" in str(exc.value)

    @pytest.mark.parametrize("command", ["sweep", "serve-api"])
    def test_negative_cell_timeout_rejected(self, command):
        with pytest.raises(SystemExit, match="cell_timeout must be positive"):
            main([command, "--cell-timeout", "-2"])

    @pytest.mark.parametrize("command", ["sweep", "serve-api"])
    def test_negative_retries_rejected(self, command):
        with pytest.raises(SystemExit, match="retries must be >= 0"):
            main([command, "--retries", "-1"])

    @pytest.mark.parametrize("command", ["sweep", "serve-api"])
    def test_hosts_require_socket_backend(self, command):
        with pytest.raises(SystemExit, match="hosts only apply to the socket"):
            main([command, "--hosts", "127.0.0.1:9"])

    @pytest.mark.parametrize("command", ["sweep", "serve-api"])
    def test_unknown_backend_rejected_by_argparse(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--backend", "carrier-pigeon"])
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_inline_backend_reported(self, capsys):
        code = main(["sweep", "--smoke", "--backend", "inline", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "via the inline backend" in out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["backend"] == "inline"
        assert len(payload["rows"]) == 4

    def test_sweep_socket_backend_loopback(self, capsys):
        code = main([
            "sweep", "--smoke", "--backend", "socket", "--workers", "2", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["backend"] == "socket"
        assert [row["key"] for row in payload["rows"]] == sorted(
            row["key"] for row in payload["rows"]
        )


class TestServe:
    def test_serve_answers_then_exits(self, capsys):
        # --max-requests lets the test run the real accept loop to completion
        code = main(["serve", "--max-requests", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shard server listening on 127.0.0.1:" in out
        assert "stopped after 0 request(s)" in out


class TestVerify:
    def test_refuted_claim_exit_zero(self, capsys):
        code = main(["verify", "--delta", "4", "--claimed-rounds", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "radius-1" in out

    def test_consistent_claim_exit_two(self):
        assert main(["verify", "--delta", "4", "--claimed-rounds", "9"]) == 2

    def test_chain_po_uses_proposal(self, capsys):
        code = main([
            "verify", "--delta", "3", "--claimed-rounds", "1", "--chain", "po", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["kind"] == "locality-violation"
        assert payload["chain"] == "po"

    def test_chain_rejects_other_algorithms(self):
        with pytest.raises(SystemExit):
            main([
                "verify", "--delta", "3", "--claimed-rounds", "1",
                "--chain", "po", "--algorithm", "greedy",
            ])

    def test_json_to_file(self, tmp_path):
        target = tmp_path / "verdict.json"
        main(["verify", "--delta", "4", "--claimed-rounds", "1", "--json", str(target)])
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["kind"] == "locality-violation"


class TestVerifyStore:
    def _sweep(self, out_dir):
        assert main(["sweep", "--smoke", "--no-cache", "--out", str(out_dir)]) == 0

    def test_clean_store_verifies(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        self._sweep(out_dir)
        code = main(["verify", "--store", str(out_dir), "--json"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "4/4 rows match" in captured
        payload = json.loads(captured.strip().splitlines()[-1])
        assert payload["mismatched"] == []
        assert payload["summary_consistent"] is True

    def test_tampered_store_fails(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        self._sweep(out_dir)
        shard = out_dir / "shard-0.jsonl"
        lines = shard.read_text().splitlines()
        row = json.loads(lines[0])
        row["witness_depth"] = 42
        lines[0] = json.dumps(row, sort_keys=True)
        shard.write_text("\n".join(lines) + "\n")
        code = main(["verify", "--store", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out

    def test_store_and_claimed_rounds_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["verify", "--store", str(tmp_path), "--claimed-rounds", "1"])

    def test_one_of_store_or_claim_required(self):
        with pytest.raises(SystemExit, match="required"):
            main(["verify"])

    def test_missing_store_directory(self, tmp_path):
        with pytest.raises(SystemExit, match="no such store"):
            main(["verify", "--store", str(tmp_path / "nope")])


class TestSurface:
    @pytest.mark.parametrize("verb", sorted(SURFACE))
    def test_options_defaults_and_choices(self, verb):
        assert verb_surface(subcommands(build_parser())[verb]) == SURFACE[verb]

    def test_no_verb_added_or_removed(self):
        assert sorted(subcommands(build_parser())) == sorted(SURFACE)

    def test_refute_is_the_verify_parser(self):
        verbs = subcommands(build_parser())
        assert verbs["refute"] is verbs["verify"]


class TestErrorBoundary:
    """``main`` turns a library ``ValueError`` into exit 1 and one line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--n", "0"],
            ["adversary", "--delta", "1"],
            ["exhaustive", "--grid-denominator", "0"],
            ["exhaustive", "--grid-denominator", "-2"],
            ["verify", "--claimed-rounds", "-1"],
            ["refute", "--claimed-rounds", "-3"],
            ["sweep", "--deltas", "8..3"],
            ["sweep", "--algorithms", "greedy", "--deltas", "three"],
            ["order", "--generators", "0"],
            ["order", "--radius", "-1"],
            ["solve", "--family", "star", "--delta", "0"],
            ["trace", "demo", "--delta", "0"],
            ["solve", "--family", "complete", "--n", "0"],
            ["solve", "--family", "loopy-tree", "--n", "0"],
            ["solve", "--family", "regular", "--delta", "0"],
            ["solve", "--family", "caterpillar", "--n", "0"],
            ["serve-api", "--queue-size", "0"],
            ["serve-api", "--job-workers", "0"],
            ["serve-api", "--rate", "-1"],
            ["serve-api", "--rate", "1", "--burst", "0"],
        ],
    )
    def test_bad_input_exits_with_one_line(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str)  # a string exit code means status 1
        assert message.startswith(f"repro {argv[0]}: ")
        assert "\n" not in message

    def test_refute_without_claim_gets_the_verify_message(self):
        with pytest.raises(SystemExit, match="repro refute: one of --claimed-rounds or --store"):
            main(["refute"])
