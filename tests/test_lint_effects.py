"""Tests for the interprocedural analyses (repro.lint.callgraph / .effects).

The headline cases are the two the per-line rules provably cannot catch:

* a clock read laundered into model code through two layers of helper
  functions in another module;
* an unpicklable lambda laundered into a pool submission through two
  layers of forwarding helpers.

Fixtures are written as real on-disk package trees under ``tmp_path`` so
``module_name_for`` assigns them model-package names and the import
resolver has actual ``__init__.py`` chains to chase.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.callgraph import MODULE_BODY, CallGraph
from repro.lint.effects import EffectAnalysis, classify_external
from repro.lint.engine import DEFAULT_CONFIG, ProjectUnderLint, module_name_for
from repro.lint.engine import _parse_module


def make_tree(root: Path, files: dict) -> list:
    """Write ``{relpath: source}`` under root, with __init__.py for each dir."""
    modules = []
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in [path.parent, *path.parent.parents]:
            if parent == root:
                break  # the root itself is not a package: the dotted names
                # of the fixture modules start just below it
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
        path.write_text(source)
    for file in sorted(root.rglob("*.py")):
        mod, syntax = _parse_module(
            file.read_text(), str(file), module_name_for(file), DEFAULT_CONFIG
        )
        assert syntax is None, syntax
        modules.append(mod)
    return modules


def project_for(root: Path, files: dict) -> ProjectUnderLint:
    return ProjectUnderLint(modules=make_tree(root, files), config=DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# call graph
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_resolves_relative_import_two_levels_up(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/util/helpers.py": "def helper():\n    return 1\n",
                "repro/core/deep/user.py": (
                    "from ...util.helpers import helper\n"
                    "def use():\n    return helper()\n"
                ),
            },
        )
        graph = project.callgraph
        assert graph.project_callees["repro.core.deep.user.use"] == [
            "repro.util.helpers.helper"
        ]

    def test_resolves_reexport_through_package_init(self, tmp_path):
        files = {
            "repro/util/impl.py": "def work():\n    return 1\n",
            "repro/core/user.py": (
                "from repro.util import work\n"
                "def use():\n    return work()\n"
            ),
        }
        root = tmp_path / "repro"
        modules = make_tree(root, files)
        # overwrite the auto-generated util __init__ with a re-export
        init = root / "repro" / "util" / "__init__.py"
        init.write_text("from .impl import work\n")
        modules = [
            m for m in modules if not m.path.endswith("util/__init__.py")
        ]
        mod, _ = _parse_module(
            init.read_text(), str(init), module_name_for(init), DEFAULT_CONFIG
        )
        modules.append(mod)
        graph = CallGraph(modules)
        assert graph.project_callees["repro.core.user.use"] == [
            "repro.util.impl.work"
        ]

    def test_self_method_call_resolves_to_same_class(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/alg.py": (
                    "class Alg:\n"
                    "    def step(self):\n"
                    "        return self.helper()\n"
                    "    def helper(self):\n"
                    "        return 1\n"
                ),
            },
        )
        graph = project.callgraph
        assert graph.project_callees["repro.core.alg.Alg.step"] == [
            "repro.core.alg.Alg.helper"
        ]

    def test_module_body_is_a_pseudo_function(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {"repro/core/boot.py": "def f():\n    return 1\nx = f()\n"},
        )
        graph = project.callgraph
        body = f"repro.core.boot.{MODULE_BODY}"
        assert graph.project_callees[body] == ["repro.core.boot.f"]

    def test_class_instantiation_edges_to_init(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/thing.py": (
                    "class Thing:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "def make():\n"
                    "    return Thing()\n"
                ),
            },
        )
        graph = project.callgraph
        assert graph.project_callees["repro.core.thing.make"] == [
            "repro.core.thing.Thing.__init__"
        ]

    def test_external_references_resolved_through_aliases(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/t.py": (
                    "import time as clock\n"
                    "def f():\n    return clock.perf_counter()\n"
                ),
            },
        )
        refs = project.callgraph.references["repro.core.t.f"]
        assert [r.dotted for r in refs] == ["time.perf_counter"]
        assert not refs[0].through_project


# ---------------------------------------------------------------------------
# effect classification and masking
# ---------------------------------------------------------------------------


class TestClassifyExternal:
    @pytest.mark.parametrize(
        "dotted,effect",
        [
            ("time.perf_counter", "clock"),
            ("time.time", "clock"),
            ("secrets.token_bytes", "entropy"),
            ("os.urandom", "entropy"),
            ("numpy.random.rand", "entropy"),
            ("random.random", "entropy"),
            ("multiprocessing.Pool", "worker-spawn"),
            ("threading.Thread", "worker-spawn"),
            ("concurrent.futures.ProcessPoolExecutor", "worker-spawn"),
        ],
    )
    def test_forbidden_names(self, dotted, effect):
        assert classify_external(dotted) == effect

    @pytest.mark.parametrize(
        "dotted",
        ["random.Random", "random.Random.randint", "os.path.join", "math.sqrt"],
    )
    def test_benign_names(self, dotted):
        assert classify_external(dotted) is None


class TestEffectInference:
    def test_clock_laundered_through_two_helper_layers(self, tmp_path):
        """THE headline case: per-line rules see nothing in model.py."""
        project = project_for(
            tmp_path / "repro",
            {
                "repro/util/timing.py": (
                    "import time\n"
                    "def _now():\n    return time.perf_counter()\n"
                    "def stamp():\n    return _now()\n"
                ),
                "repro/core/model.py": (
                    "from ..util.timing import stamp\n"
                    "def decide(x):\n    return x + stamp()\n"
                ),
            },
        )
        analysis = project.effects
        fx = analysis.functions["repro.core.model.decide"]
        assert "clock" in fx.visible
        sources = fx.sources["clock"]
        assert sources[0].kind == "call"
        chain = analysis.path("repro.core.model.decide", "clock")
        assert chain == [
            "repro.core.model.decide",
            "repro.util.timing.stamp",
            "repro.util.timing._now",
            "time.perf_counter",
        ]
        # and the rule flags it
        findings = lint_paths([tmp_path / "repro"])
        escaped = [f for f in findings if f.rule == "effect-escape"]
        assert any("decide" in f.message and "clock" in f.message for f in escaped)

    def test_covert_reexport_is_flagged_overt_direct_is_not(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/obs/clockmod.py": "from time import perf_counter\n# repro: clock\n",
                "repro/core/covert.py": (
                    "from ..obs.clockmod import perf_counter\n"
                    "def sneak():\n    return perf_counter()\n"
                ),
            },
        )
        analysis = project.effects
        fx = analysis.functions["repro.core.covert.sneak"]
        assert "clock" in fx.visible
        assert fx.sources["clock"][0].kind == "covert"

    def test_effect_masked_at_declared_boundary(self, tmp_path):
        # the tracer module is a declared clock module: calls into it are
        # contained, so the model caller stays clean
        project = project_for(
            tmp_path / "repro",
            {
                "repro/obs/tracer.py": (
                    "import time\n"
                    "def now():\n    return time.perf_counter()\n"
                ),
                "repro/core/model.py": (
                    "from ..obs.tracer import now\n"
                    "def timed(x):\n    return x, now()\n"
                ),
            },
        )
        analysis = project.effects
        tracer_fx = analysis.functions["repro.obs.tracer.now"]
        assert "clock" in tracer_fx.contained
        assert "clock" not in tracer_fx.visible
        model_fx = analysis.functions["repro.core.model.timed"]
        assert "clock" not in model_fx.visible
        findings = lint_paths([tmp_path / "repro"])
        assert [f for f in findings if f.rule == "effect-escape"] == []

    def test_entropy_masked_at_randomized_module(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/local/randomized.py": (
                    "import random\n"
                    "def coin(rng=None):\n    return random.random()\n"
                ),
                "repro/core/user.py": (
                    "from ..local.randomized import coin\n"
                    "def decide():\n    return coin()\n"
                ),
            },
        )
        analysis = project.effects
        assert "entropy" not in analysis.functions["repro.core.user.decide"].visible

    def test_global_mutation_detected_and_propagated(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/registry.py": (
                    "REGISTRY = {}\n"
                    "def register(name, value):\n"
                    "    REGISTRY[name] = value\n"
                    "def convenience(v):\n"
                    "    register('x', v)\n"
                ),
            },
        )
        analysis = project.effects
        assert "global-mutation" in analysis.functions[
            "repro.core.registry.register"
        ].direct
        assert "global-mutation" in analysis.functions[
            "repro.core.registry.convenience"
        ].visible
        findings = lint_paths([tmp_path / "repro"])
        assert any(f.rule == "effect-escape" for f in findings)

    @pytest.mark.parametrize(
        "body",
        [
            "    for memo in (RUNS, PLANS):\n        memo.clear()\n",
            "    table = RUNS\n    table[k] = v\n",
        ],
        ids=["loop-variable", "local-alias"],
    )
    def test_mutation_through_an_alias_is_global_mutation(self, tmp_path, body):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/memos.py": (
                    "RUNS = {}\nPLANS = {}\ndef reset(k, v):\n" + body
                ),
            },
        )
        fx = project.effects.functions["repro.core.memos.reset"]
        assert "global-mutation" in fx.direct
        assert "'RUNS'" in fx.sources["global-mutation"][0].detail
        findings = lint_paths([tmp_path / "repro"])
        assert any(f.rule == "effect-escape" for f in findings)

    def test_local_shadowing_is_not_global_mutation(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/shadow.py": (
                    "CACHE = {}\n"
                    "def pure(x):\n"
                    "    CACHE = {}\n"
                    "    CACHE[x] = 1\n"
                    "    return CACHE\n"
                ),
            },
        )
        analysis = project.effects
        assert "global-mutation" not in analysis.functions[
            "repro.core.shadow.pure"
        ].direct

    def test_noqa_sanctioned_site_does_not_propagate(self, tmp_path):
        project = project_for(
            tmp_path / "repro",
            {
                "repro/core/memo.py": (
                    "_MEMO = {}\n"
                    "def remember(k, v):\n"
                    "    _MEMO[k] = v  # repro: noqa[effect-escape]\n"
                ),
            },
        )
        analysis = project.effects
        fx = analysis.functions["repro.core.memo.remember"]
        assert "global-mutation" not in fx.direct
        assert "global-mutation" in fx.raw_direct
        findings = lint_paths([tmp_path / "repro"])
        assert [f for f in findings if f.rule == "effect-escape"] == []
        # and the consumed noqa is not reported as unused
        assert [f for f in findings if f.rule == "suppression-hygiene"] == []

    def test_effects_lookup_falls_back_to_module_body(self, tmp_path):
        project = project_for(
            tmp_path / "repro", {"repro/core/boot.py": "x = 1\n"}
        )
        fx = project.effects.lookup("repro.core.boot")
        assert fx is not None and fx.qualname.endswith(MODULE_BODY)
