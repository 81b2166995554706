"""Tests for the model-contract static analyzer (repro.lint)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import (
    DEFAULT_CONFIG,
    lint_paths,
    lint_source,
    module_name_for,
    render_json,
    render_text,
    summarize,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ---------------------------------------------------------------------------
# rule: locality
# ---------------------------------------------------------------------------

CHEATING_EC = """
from repro.local.algorithm import DistributedAlgorithm

class Cheater(DistributedAlgorithm):
    model = "EC"
    def initial_state(self, ctx):
        return {"me": ctx.node}
    def send(self, state, ctx):
        return {}
    def receive(self, state, ctx, inbox):
        return state
    def output(self, state, ctx):
        return ctx.identifier
"""

ID_ALGORITHM = """
from repro.local.algorithm import DistributedAlgorithm

class IdAlg(DistributedAlgorithm):
    model = "ID"
    def initial_state(self, ctx):
        return ctx.identifier
    def send(self, state, ctx):
        return {p: ctx.node for p in ctx.ports}
    def receive(self, state, ctx, inbox):
        return state
    def output(self, state, ctx):
        return state
"""

REACHY_EC = """
class Reacher:
    model = "EC"
    def initial_state(self, ctx):
        from repro.local.runtime import ECNetwork
        return ECNetwork
    def send(self, state, ctx):
        global shared
        return {}
"""


class TestLocalityRule:
    def test_ec_algorithm_reading_node_and_identifier_is_flagged(self):
        findings = lint_source(CHEATING_EC, module="fixture")
        assert rules_of(findings) == ["locality"]
        assert len(findings) == 2  # ctx.node and ctx.identifier
        assert any("ctx.node" in f.message for f in findings)
        assert any("ctx.identifier" in f.message for f in findings)

    def test_id_algorithm_may_read_identity(self):
        assert lint_source(ID_ALGORITHM, module="fixture") == []

    def test_runtime_import_and_global_inside_method_are_flagged(self):
        findings = lint_source(REACHY_EC, module="fixture")
        assert rules_of(findings) == ["locality"]
        assert any("machinery" in f.message for f in findings)
        assert any("global" in f.message for f in findings)

    def test_noqa_suppresses_locality(self):
        suppressed = CHEATING_EC.replace(
            'return {"me": ctx.node}',
            'return {"me": ctx.node}  # repro: noqa[locality]',
        ).replace(
            "return ctx.identifier",
            "return ctx.identifier  # repro: noqa[locality]",
        )
        assert lint_source(suppressed, module="fixture") == []


# ---------------------------------------------------------------------------
# rule: determinism
# ---------------------------------------------------------------------------

AMBIENT_RANDOM = """
import random

def flip():
    return random.random() < 0.5
"""

SEEDED_RANDOM = """
import random

def make(seed: int) -> random.Random:
    return random.Random(seed)
"""

UNSEEDED_RANDOM = """
import random

def make():
    return random.Random()
"""

NUMPY_TIME_ENTROPY = """
import numpy as np
import os
import time

def stamp():
    return time.time(), np.random.rand(), os.urandom(4)
"""


class TestDeterminismRule:
    def test_ambient_random_is_flagged(self):
        findings = lint_source(AMBIENT_RANDOM, module="fixture")
        assert rules_of(findings) == ["determinism"]

    def test_seeded_random_is_allowed(self):
        assert lint_source(SEEDED_RANDOM, module="fixture") == []

    def test_unseeded_random_is_flagged(self):
        findings = lint_source(UNSEEDED_RANDOM, module="fixture")
        assert any("unseeded" in f.message for f in findings)

    def test_numpy_time_urandom_are_flagged(self):
        findings = lint_source(NUMPY_TIME_ENTROPY, module="fixture")
        messages = " ".join(f.message for f in findings)
        assert "numpy.random" in messages
        assert "time" in messages
        assert "urandom" in messages

    def test_declared_randomized_module_is_skipped(self):
        declared = lint_source(AMBIENT_RANDOM, module="repro.local.randomized")
        assert declared == []

    def test_randomized_marker_line_is_honoured(self):
        marked = "# repro: randomized\n" + AMBIENT_RANDOM
        assert lint_source(marked, module="fixture") == []

    def test_from_import_of_ambient_name_is_flagged(self):
        findings = lint_source("from random import choice\n", module="fixture")
        assert rules_of(findings) == ["determinism"]
        assert lint_source("from random import Random\n", module="fixture") == []


CLOCK_ONLY = """
import time

def now():
    return time.perf_counter()
"""

CLOCK_AND_RANDOM = """
import random
import time

def tainted():
    return time.perf_counter() + random.random()
"""


class TestClockExemption:
    """The observability tracer is a sanctioned clock reader — and only that.

    Nothing the model computes may depend on a clock, so the exemption is
    surgical: it relaxes the ``time`` checks alone, for exactly the modules
    in ``LintConfig.clock_modules`` or carrying a ``# repro: clock`` marker.
    """

    def test_tracer_module_is_sanctioned_by_config(self):
        assert "repro.obs.tracer" in DEFAULT_CONFIG.clock_modules
        assert lint_source(CLOCK_ONLY, module="repro.obs.tracer") == []

    def test_other_modules_still_flag_time(self):
        findings = lint_source(CLOCK_ONLY, module="repro.obs.export")
        assert rules_of(findings) == ["determinism"]
        assert any("time" in f.message for f in findings)

    def test_clock_marker_line_is_honoured(self):
        marked = "# repro: clock\n" + CLOCK_ONLY
        assert lint_source(marked, module="fixture") == []

    def test_from_time_import_is_exempt_in_clock_module(self):
        source = "from time import perf_counter\n"
        assert lint_source(source, module="repro.obs.tracer") == []
        assert rules_of(lint_source(source, module="fixture")) == ["determinism"]

    def test_exemption_does_not_cover_other_entropy(self):
        # a sanctioned clock module may read clocks but not ambient randomness
        findings = lint_source(CLOCK_AND_RANDOM, module="repro.obs.tracer")
        assert rules_of(findings) == ["determinism"]
        assert all("random" in f.message for f in findings)

    def test_sanctioned_modules_are_the_only_time_readers_in_src(self):
        # linting src with the exemption removed flags exactly the sanctioned
        # clock modules: the tracer (span timing), the shard runtime (retry
        # backoff, watchdog joins), the fault injector (stall injection), the
        # progress emitter (heartbeat throttling/ETAs) and the sweep
        # service's token-bucket rate limiter
        from dataclasses import replace

        strict = replace(DEFAULT_CONFIG, clock_modules=frozenset())
        findings = lint_paths([SRC], config=strict, select=["determinism"])
        offenders = {f.path for f in findings}
        assert offenders == {
            str(SRC / "repro" / "obs" / "tracer.py"),
            str(SRC / "repro" / "obs" / "progress.py"),
            str(SRC / "repro" / "engine" / "executors" / "shard.py"),
            str(SRC / "repro" / "engine" / "faults.py"),
            str(SRC / "repro" / "service" / "jobs.py"),
        }

    def test_sanctioned_clock_set_is_exactly_declared(self):
        # the PR-5 pattern: the config names the sanctioned set explicitly,
        # so adding a clock reader anywhere else must touch this assertion
        assert DEFAULT_CONFIG.clock_modules == frozenset(
            {
                "repro.obs.tracer",
                "repro.obs.progress",
                "repro.engine.executors.shard",
                "repro.engine.faults",
                "repro.service.jobs",
            }
        )


POOL_ONLY = """
import multiprocessing

def fan_out(jobs):
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        return pool.map(len, jobs)
"""

POOL_AND_RANDOM = """
import multiprocessing
import random

def shuffle_jobs(jobs):
    random.shuffle(jobs)
    return jobs
"""


class TestWorkerExemption:
    """The sweep engine's pool is the sanctioned process spawner — only that.

    Worker scheduling is nondeterministic, so like the clock exemption this
    one is surgical: it relaxes the worker-pool import checks alone, for
    exactly the modules in ``LintConfig.worker_modules`` or carrying a
    ``# repro: workers`` marker.
    """

    def test_pool_module_is_sanctioned_by_config(self):
        assert "repro.engine.pool" in DEFAULT_CONFIG.worker_modules
        assert lint_source(POOL_ONLY, module="repro.engine.pool") == []

    def test_other_modules_flag_worker_imports(self):
        findings = lint_source(POOL_ONLY, module="repro.core.adversary")
        assert rules_of(findings) == ["determinism"]
        assert any("workers" in f.message for f in findings)

    def test_from_import_and_threading_are_flagged(self):
        source = "from concurrent.futures import ProcessPoolExecutor\nimport threading\n"
        findings = lint_source(source, module="fixture")
        assert len(findings) == 2
        assert rules_of(findings) == ["determinism"]

    def test_workers_marker_line_is_honoured(self):
        marked = "# repro: workers\n" + POOL_ONLY
        assert lint_source(marked, module="fixture") == []

    def test_exemption_does_not_cover_randomness(self):
        findings = lint_source(POOL_AND_RANDOM, module="repro.engine.pool")
        assert rules_of(findings) == ["determinism"]
        assert all("random" in f.message for f in findings)

    def test_shipped_executors_are_the_only_spawners_in_src(self):
        # the driver (monitor thread), the shard runtime (watchdog thread),
        # the process backend, and the sweep service (queue-drain
        # workers + the threading HTTP front-end); the inline backend is a
        # plain loop in the calling thread and needs no sanction at all
        from dataclasses import replace

        strict = replace(DEFAULT_CONFIG, worker_modules=frozenset())
        findings = lint_paths([SRC], config=strict, select=["determinism"])
        offenders = {f.path for f in findings}
        assert offenders == {
            str(SRC / "repro" / "engine" / "pool.py"),
            str(SRC / "repro" / "engine" / "executors" / "shard.py"),
            str(SRC / "repro" / "engine" / "executors" / "process.py"),
            str(SRC / "repro" / "service" / "jobs.py"),
            str(SRC / "repro" / "service" / "server.py"),
        }

    def test_sanctioned_worker_set_is_exactly_declared(self):
        # same exact-set discipline as the clock exemption: growing the
        # executors package must grow this assertion consciously
        assert DEFAULT_CONFIG.worker_modules == frozenset(
            {
                "repro.engine.pool",
                "repro.engine.executors.shard",
                "repro.engine.executors.process",
                "repro.service.jobs",
                "repro.service.server",
            }
        )


KERNEL_TOUCHING = """
def attach(kernel, snap):
    object.__setattr__(kernel, "_soa", snap)
"""


class TestKernelExemption:
    """The SoA snapshot layer is a sanctioned kernel module — the only one
    besides the kernel itself.

    Frozen kernels are immutable everywhere else, so like the clock and
    worker exemptions this one is surgical: it masks the kernel-mutation
    effect for exactly the modules in ``LintConfig.kernel_modules`` (the
    kernel/builder implementation and the columnar snapshot layer that
    memoizes onto the kernel's dedicated ``_soa`` slot).
    """

    def test_soa_is_sanctioned_by_config(self):
        assert "repro.graphs.soa" in DEFAULT_CONFIG.kernel_modules
        assert lint_source(KERNEL_TOUCHING, module="repro.graphs.soa") == []

    def test_other_modules_still_flag_kernel_mutation(self):
        findings = lint_source(KERNEL_TOUCHING, module="repro.core.adversary")
        assert rules_of(findings) == ["kernel-escape"]

    def test_soa_snapshot_slot_is_a_kernel_internal(self):
        # the memoized snapshot slot counts as a frozen attribute: forging
        # it from outside the sanctioned modules is a kernel escape
        from repro.lint.effects import KERNEL_INTERNALS

        assert "_soa" in KERNEL_INTERNALS

    def test_unsanctioning_soa_flags_the_snapshot_memo(self):
        # with the exemption narrowed back to the kernel module alone, the
        # snapshot layer's memo writes surface as kernel-escape findings
        from dataclasses import replace

        strict = replace(
            DEFAULT_CONFIG, kernel_modules=frozenset({"repro.graphs.kernel"})
        )
        findings = lint_paths([SRC], config=strict, select=["kernel-escape"])
        offenders = {f.path for f in findings}
        assert str(SRC / "repro" / "graphs" / "soa.py") in offenders

    def test_sanctioned_kernel_set_is_exactly_declared(self):
        # same exact-set discipline as the clock and worker exemptions:
        # growing the kernel implementation must grow this assertion
        assert DEFAULT_CONFIG.kernel_modules == frozenset(
            {"repro.graphs.kernel", "repro.graphs.soa"}
        )


# ---------------------------------------------------------------------------
# rule: exact-arith
# ---------------------------------------------------------------------------

FLOATY = """
def ratio(a, b):
    x = 0.5
    return float(a) / b + x
"""


class TestExactArithRule:
    def test_floats_and_division_flagged_inside_scope(self):
        findings = lint_source(FLOATY, module="repro.matching.fixture")
        assert rules_of(findings) == ["exact-arith"]
        assert len(findings) == 3  # literal, float(), division

    def test_out_of_scope_module_is_ignored(self):
        assert lint_source(FLOATY, module="repro.graphs.fixture") == []

    def test_lp_and_analysis_are_exempt(self):
        assert lint_source(FLOATY, module="repro.matching.lp") == []
        assert lint_source(FLOATY, module="repro.analysis") == []

    def test_core_is_in_scope(self):
        findings = lint_source(FLOATY, module="repro.core.fixture")
        assert rules_of(findings) == ["exact-arith"]

    def test_noqa_suppresses_exact_arith(self):
        suppressed = FLOATY.replace("x = 0.5", "x = 0.5  # repro: noqa[exact-arith]").replace(
            "return float(a) / b + x",
            "return float(a) / b + x  # repro: noqa[exact-arith]",
        )
        assert lint_source(suppressed, module="repro.matching.fixture") == []


# ---------------------------------------------------------------------------
# rule: frozen-mutation
# ---------------------------------------------------------------------------

MUTATING = """
def sneak(ctx, extra):
    ctx.globals["extra"] = extra
    ctx.globals.update(extra)
    object.__setattr__(ctx, "model", "ID")

def poke(ball):
    ball.distances.pop(0)

def renamed(snapshot: NodeContext):
    snapshot.ports = ()
"""

CLEAN_STATE = """
def step(state, ctx):
    state["weights"] = dict(state["weights"])
    state["weights"][0] = 1
    return state
"""


class TestFrozenMutationRule:
    def test_context_view_ball_mutation_flagged(self):
        findings = lint_source(MUTATING, module="fixture")
        assert rules_of(findings) == ["frozen-mutation"]
        assert len(findings) == 5

    def test_annotated_parameter_is_tracked(self):
        findings = lint_source(MUTATING, module="fixture")
        # snapshot.ports = () is only caught via the NodeContext annotation
        assert any("snapshot" in f.message for f in findings)

    def test_ordinary_state_mutation_is_fine(self):
        assert lint_source(CLEAN_STATE, module="fixture") == []

    def test_noqa_suppresses_mutation(self):
        suppressed = MUTATING.replace(
            'ctx.globals["extra"] = extra',
            'ctx.globals["extra"] = extra  # repro: noqa[frozen-mutation]',
        )
        findings = lint_source(suppressed, module="fixture")
        assert len(findings) == 4

    def test_kernel_mutation_now_owned_by_kernel_escape(self):
        # kernels moved from the name-heuristic frozen-mutation rule to the
        # interprocedural kernel-escape rule
        source = (
            "def corrupt(kernel, g):\n"
            "    kernel._slots[0] = {}\n"
            "    kernel._edges.pop(3)\n"
            "    object.__setattr__(kernel, '_digest', 'forged')\n"
        )
        findings = lint_source(source, module="fixture")
        assert set(rules_of(findings)) == {"kernel-escape"}
        assert len(findings) == 3


# ---------------------------------------------------------------------------
# suppression machinery
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_bare_noqa_silences_every_rule(self):
        source = 'import random\nx = random.random()  # repro: noqa\n'
        assert lint_source(source, module="fixture") == []

    def test_listed_noqa_only_silences_named_rules(self):
        source = 'import random\nx = random.random()  # repro: noqa[exact-arith]\n'
        findings = lint_source(source, module="fixture")
        assert "determinism" in rules_of(findings)
        # and the decoy suppression is itself reported as unused
        assert "suppression-hygiene" in rules_of(findings)

    def test_multiple_rules_in_one_noqa(self):
        source = (
            "import random\n"
            "x = random.random()  # repro: noqa[determinism, exact-arith]\n"
        )
        assert lint_source(source, module="fixture") == []

    def test_noqa_anywhere_on_a_multiline_statement_suppresses(self):
        # the finding anchors on the random.random() line; the suppression
        # sits two physical lines later, still inside the same statement
        source = (
            "import random\n"
            "x = [\n"
            "    random.random()\n"
            "    for _ in range(3)\n"
            "    # repro: noqa[determinism]\n"
            "]\n"
        )
        assert lint_source(source, module="fixture") == []

    def test_noqa_on_first_line_covers_wrapped_expression(self):
        source = (
            "import random\n"
            "x = (  # repro: noqa[determinism]\n"
            "    random.random()\n"
            ")\n"
        )
        assert lint_source(source, module="fixture") == []

    def test_noqa_inside_function_body_does_not_leak_to_def_line(self):
        # a compound statement's span is its header only: a noqa buried in
        # the body must not suppress findings anchored on other body lines
        source = (
            "import random\n"
            "def f():\n"
            "    y = 1  # repro: noqa[determinism]\n"
            "    return random.random()\n"
        )
        findings = lint_source(source, module="fixture")
        assert "determinism" in rules_of(findings)

    def test_docstring_mentioning_noqa_is_not_a_suppression(self):
        source = (
            '"""Docs showing the # repro: noqa[determinism] syntax."""\n'
            "import random\n"
            "x = random.random()\n"
        )
        findings = lint_source(source, module="fixture")
        assert "determinism" in rules_of(findings)

    def test_unknown_select_raises(self):
        import pytest

        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_source("x = 1\n", module="fixture", select=["not-a-rule"])


# ---------------------------------------------------------------------------
# engine + reporters + the shipped tree
# ---------------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", module="fixture")
        assert rules_of(findings) == ["syntax"]

    def test_module_name_for_walks_packages(self):
        assert module_name_for(SRC / "repro" / "matching" / "lp.py") == "repro.matching.lp"
        assert module_name_for(SRC / "repro" / "lint" / "__init__.py") == "repro.lint"

    def test_module_name_for_file_outside_any_package(self, tmp_path):
        loose = tmp_path / "script.py"
        loose.write_text("x = 1\n")
        assert module_name_for(loose) == "script"

    def test_module_name_for_stops_at_missing_intermediate_init(self, tmp_path):
        # pkg/ has no __init__.py, so the climb stops there: sub is the root
        (tmp_path / "pkg" / "sub").mkdir(parents=True)
        (tmp_path / "pkg" / "sub" / "__init__.py").write_text("")
        mod = tmp_path / "pkg" / "sub" / "leaf.py"
        mod.write_text("x = 1\n")
        assert module_name_for(mod) == "sub.leaf"

    def test_module_name_for_init_of_nested_package(self, tmp_path):
        (tmp_path / "a" / "b").mkdir(parents=True)
        (tmp_path / "a" / "__init__.py").write_text("")
        (tmp_path / "a" / "b" / "__init__.py").write_text("")
        assert module_name_for(tmp_path / "a" / "b" / "__init__.py") == "a.b"

    def test_module_name_for_loose_init_is_its_directory(self, tmp_path):
        # an __init__.py whose own directory has no parent package
        (tmp_path / "only").mkdir()
        init = tmp_path / "only" / "__init__.py"
        init.write_text("")
        assert module_name_for(init) == "only"

    def test_lint_paths_dedupes_file_given_directly_and_via_directory(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        once = lint_paths([tmp_path])
        twice = lint_paths([tmp_path, bad])
        thrice = lint_paths([bad, tmp_path, bad])
        assert once and once == twice == thrice
        assert len(set(once)) == len(once)  # no duplicated findings

    def test_default_config_declares_the_randomized_trio(self):
        assert "repro.local.randomized" in DEFAULT_CONFIG.randomized_modules
        assert "repro.matching.random_priority" in DEFAULT_CONFIG.randomized_modules
        assert "repro.matching.integral" in DEFAULT_CONFIG.randomized_modules

    def test_select_restricts_rules(self):
        findings = lint_source(FLOATY, module="repro.matching.fixture", select=["locality"])
        assert findings == []


class TestReporters:
    def test_render_json_round_trips(self):
        findings = lint_source(FLOATY, module="repro.matching.fixture")
        payload = json.loads(render_json(findings))
        assert payload["clean"] is False
        assert payload["total"] == 3
        assert payload["by_rule"] == {"exact-arith": 3}
        assert len(payload["findings"]) == 3

    def test_render_text_clean_message(self):
        assert "clean" in render_text([])

    def test_summarize_clean(self):
        assert summarize([]) == {"clean": True, "total": 0, "by_rule": {}, "findings": []}


class TestShippedTreeIsContractClean:
    def test_lint_paths_on_src_is_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_lint_exits_zero_on_src(self, capsys):
        assert main(["lint", str(SRC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_json_output(self, capsys):
        assert main(["lint", str(SRC), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True

    def test_cli_lint_nonzero_on_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "determinism" in out

    def test_cli_sanitize_demo(self, capsys):
        assert main(["lint", "--sanitize-demo"]) == 0
        out = capsys.readouterr().out
        assert "cheating algorithm caught" in out
        assert "honest algorithm clean: True" in out
