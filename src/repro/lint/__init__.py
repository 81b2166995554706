"""Model-contract static analysis for the reproduction (``repro.lint``).

The repository's correctness story is "everything verified, nothing
trusted" (DESIGN.md): adversary invariants, covering maps and FM maximality
are machine-checked.  The *model contracts* the algorithms live under —
anonymity, determinism, exact arithmetic, frozen views — were previously
policed only dynamically, when a test happened to exercise the right lift.
This package turns them into a two-layer static pass.

Per-line module rules:

* ``locality``        — EC/PO/OI algorithm classes must not read
                        ``ctx.node`` / ``ctx.identifier`` or reach into the
                        runtime/graph machinery from node-local code;
* ``determinism``     — no ambient randomness (global ``random.*``,
                        ``numpy.random``, ``time``, ``os.urandom``,
                        ``secrets``) outside explicitly randomized modules;
* ``exact-arith``     — no float literals, ``float()`` coercions or true
                        division in the exact-arithmetic core
                        (``repro.matching`` / ``repro.core`` minus the
                        explicitly-floating LP module);
* ``frozen-mutation`` — no in-place mutation of :class:`NodeContext`,
                        view trees or neighbourhood balls.

Interprocedural project rules, built on a whole-program call graph
(:mod:`repro.lint.callgraph`) and transitive effect inference
(:mod:`repro.lint.effects`):

* ``effect-escape``       — no path from model code into clock / entropy /
                            worker-spawn / float / global-state effects
                            that does not cross a declared exemption
                            boundary — the config allowlists, verified;
* ``engine-concurrency``  — nothing unpicklable submitted to the worker
                            pool (however many helper layers deep), no
                            worker entry point touching module-global
                            state, no unsanctioned thread targets;
* ``kernel-escape``       — no post-freeze mutation of
                            :class:`GraphKernel` internals anywhere
                            outside the kernel module itself;
* ``suppression-hygiene`` — no stale/unused ``# repro: noqa`` or marker
                            comments.

Findings are suppressed with ``# repro: noqa[rule-id]`` on any physical
line of the offending statement (bare ``# repro: noqa`` silences every
rule); a module declares a sanctioned effect with a marker line
(``# repro: randomized|clock|workers|state``).  Accepted findings live in
a committed baseline with ratchet semantics (:mod:`repro.lint.baseline`).
See ``docs/static_analysis.md`` for rule-by-rule justification and the
runtime counterpart, the locality sanitizer in :mod:`repro.local.sanitize`.
"""

from __future__ import annotations

from .baseline import load_baseline, ratchet, write_baseline
from .engine import (
    DEFAULT_CONFIG,
    Finding,
    LintConfig,
    ModuleUnderLint,
    ProjectUnderLint,
    lint_paths,
    lint_source,
    load_modules,
    module_name_for,
)
from .reporters import render_json, render_sarif, render_text, summarize
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "ModuleUnderLint",
    "ProjectUnderLint",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_modules",
    "module_name_for",
    "ratchet",
    "render_json",
    "render_sarif",
    "render_text",
    "summarize",
    "write_baseline",
]
