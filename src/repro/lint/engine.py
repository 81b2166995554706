"""Rule engine: parse modules, run rules, honour suppressions.

The engine runs two kinds of rules over a set of parsed modules:

* *module rules* — ``check(module) -> Iterator[Finding]`` registered in
  :data:`repro.lint.rules.MODULE_RULES`; each sees one
  :class:`ModuleUnderLint` (path, dotted module name, source lines, AST,
  config) at a time — the v1 per-line contract checks;
* *project rules* — ``check(project) -> Iterator[Finding]`` registered in
  :data:`repro.lint.rules.PROJECT_RULES`; each sees the whole
  :class:`ProjectUnderLint`, which lazily builds the project call graph
  (:mod:`repro.lint.callgraph`) and the interprocedural effect analysis
  (:mod:`repro.lint.effects`) on demand — the v2 whole-program checks.

Suppression syntax (a real comment token, anywhere on any physical line of
the statement the finding anchors inside):

* ``# repro: noqa[exact-arith]``          — silence one rule;
* ``# repro: noqa[locality, exact-arith]`` — silence several;
* ``# repro: noqa``                        — silence every rule.

Comments are found with :mod:`tokenize`, so a docstring that merely *talks
about* ``# repro: noqa`` neither suppresses nor counts as a suppression.
Findings of the ``suppression-hygiene`` rule are exempt from noqa
suppression (a stale noqa must not be able to silence its own staleness
report); capture them in the lint baseline instead.

Module-level marker comments declare a whole module's sanctioned effects,
equivalent to listing it in the matching :class:`LintConfig` set:

* ``# repro: randomized`` — may use ambient randomness;
* ``# repro: clock``      — may read wall clocks;
* ``# repro: workers``    — may spawn worker processes/threads;
* ``# repro: state``      — may hold mutable process-global state.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "LintConfig",
    "ModuleUnderLint",
    "NoqaComment",
    "ProjectUnderLint",
    "DEFAULT_CONFIG",
    "MARKER_KINDS",
    "lint_source",
    "lint_paths",
    "load_modules",
    "module_name_for",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([a-zA-Z0-9_\-,\s]+)\])?")

#: marker kind -> regex matching a standalone marker comment's text.
MARKER_KINDS = ("randomized", "clock", "workers", "state")
_MARKER_RES = {
    kind: re.compile(rf"^#\s*repro:\s*{kind}\s*$") for kind in MARKER_KINDS
}


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: [rule] message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """What the rules treat as in/out of scope.

    Attributes
    ----------
    randomized_modules:
        Dotted module names explicitly declared randomized; the
        ``determinism`` rule skips them entirely, and the effect analysis
        treats them as a containment boundary for the ``entropy`` effect.
    clock_modules:
        Modules sanctioned to read wall clocks (``time``).  The
        observability tracer must time spans, but nothing the *model*
        computes may depend on a clock — so the exemption is surgical:
        clock reads are permitted in exactly these modules (or under a
        module-level ``# repro: clock`` marker) and every other
        ``determinism`` check still applies to them.  The effect analysis
        masks the ``clock`` effect at these modules' boundaries.
    worker_modules:
        Modules sanctioned to spawn worker processes/threads
        (``multiprocessing``, ``concurrent.futures``, ``threading``).  The
        experiment engine shards sweeps across a process pool, but model
        code must stay single-threaded and deterministic — so, like the
        clock exemption, this one is surgical: process spawning is
        permitted in exactly these modules (or under a module-level
        ``# repro: workers`` marker) and the randomness/clock checks still
        apply to them.  Boundary for the ``worker-spawn`` effect.
    exact_scopes:
        Dotted prefixes inside which ``exact-arith`` applies.
    exact_exempt:
        Modules inside an exact scope that are explicitly floating
        (the LP baseline interfaces with scipy and speaks float natively).
    model_packages:
        Dotted prefixes of *model code* — everything whose output the
        paper's byte-identical determinism invariant covers.  The
        ``effect-escape`` rule flags any function here whose transitive
        effect set reaches an unsanctioned ambient effect.
    state_modules:
        Modules sanctioned to hold mutable process-global state (ambient
        tracer/fault/cache installers).  Boundary for the
        ``global-mutation`` effect; declare new ones with a module-level
        ``# repro: state`` marker.
    kernel_modules:
        Modules sanctioned to touch :class:`~repro.graphs.kernel.GraphKernel`
        internals (the kernel/builder implementation itself).  Boundary for
        the ``kernel-mutation`` effect; the ``kernel-escape`` rule flags
        every reach-in anywhere else.
    """

    randomized_modules: frozenset = frozenset(
        {
            "repro.local.randomized",
            "repro.matching.random_priority",
            "repro.matching.integral",
        }
    )
    clock_modules: frozenset = frozenset(
        {
            "repro.obs.tracer",
            # shard runtime: retry backoff + watchdog joins; faults: stall
            # injection.  Both sleep, neither feeds a clock value into
            # model output.
            "repro.engine.executors.shard",
            "repro.engine.faults",
            # progress: heartbeat throttling/ETAs.  It injects the clock
            # (defaulting to perf_counter) and only ever reports durations.
            "repro.obs.progress",
            # service jobs: the token-bucket rate limiter's injected clock
            # (defaulting to monotonic) feeds only admission control
            "repro.service.jobs",
        }
    )
    worker_modules: frozenset = frozenset(
        {
            # the driver's progress-monitor thread
            "repro.engine.pool",
            # the shard runtime's watchdog thread + ambient lock
            "repro.engine.executors.shard",
            # the spawn-context pool backend
            "repro.engine.executors.process",
            # the sweep service's queue-drain worker threads
            "repro.service.jobs",
            # the threading HTTP front-end over the sweep service
            "repro.service.server",
        }
    )
    exact_scopes: Tuple[str, ...] = ("repro.matching", "repro.core")
    exact_exempt: frozenset = frozenset({"repro.matching.lp", "repro.analysis"})
    model_packages: Tuple[str, ...] = (
        "repro.core",
        "repro.local",
        "repro.coloring",
        "repro.matching",
        "repro.graphs",
    )
    state_modules: frozenset = frozenset(
        {
            # the ambient canonical-form cache, tracer and fault installers:
            # process-global by design, swapped only through their install
            # functions and restored by the paired context managers
            "repro.graphs.isomorphism",
            "repro.obs.tracer",
            "repro.engine.faults",
        }
    )
    kernel_modules: frozenset = frozenset(
        {
            # the kernel/builder implementation itself
            "repro.graphs.kernel",
            # the SoA snapshot layer: memoizes columnar snapshots on the
            # frozen kernel's dedicated ``_soa`` slot
            "repro.graphs.soa",
        }
    )


DEFAULT_CONFIG = LintConfig()


@dataclass(frozen=True)
class NoqaComment:
    """One ``# repro: noqa[...]`` comment: its line and the rules it names.

    ``rules`` is ``None`` for a bare ``# repro: noqa`` (silences everything).
    """

    line: int
    rules: Optional[FrozenSet[str]]


@dataclass
class ModuleUnderLint:
    """Everything a rule needs to inspect one module."""

    path: str
    module: str
    source: str
    lines: List[str]
    tree: ast.AST
    config: LintConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    _comments: Optional[List[Tuple[int, int, str]]] = field(
        default=None, repr=False, compare=False
    )
    _spans: Optional[List[Tuple[int, int]]] = field(
        default=None, repr=False, compare=False
    )
    _noqas: Optional[List[NoqaComment]] = field(
        default=None, repr=False, compare=False
    )
    _markers: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False
    )

    # -- comments, markers, suppressions ---------------------------------

    def comments(self) -> List[Tuple[int, int, str]]:
        """All real comment tokens as ``(line, col, text)``, cached.

        Uses :mod:`tokenize` so string literals that merely contain a ``#``
        are not mistaken for comments; on a tokenization error (the AST
        parsed, so this is rare) falls back to a line-based scan.
        """
        if self._comments is None:
            found: List[Tuple[int, int, str]] = []
            try:
                for tok in tokenize.generate_tokens(io.StringIO(self.source).readline):
                    if tok.type == tokenize.COMMENT:
                        found.append((tok.start[0], tok.start[1], tok.string))
            except (tokenize.TokenError, IndentationError, SyntaxError):
                for number, line in enumerate(self.lines, start=1):
                    marker = line.find("#")
                    if marker >= 0:
                        found.append((number, marker, line[marker:]))
            self._comments = found
        return self._comments

    def markers(self) -> Dict[str, int]:
        """Marker kind -> line of the first standalone marker comment."""
        if self._markers is None:
            found: Dict[str, int] = {}
            for line, col, text in self.comments():
                prefix = self.lines[line - 1][:col] if line <= len(self.lines) else ""
                if prefix.strip():
                    continue  # markers must be standalone comment lines
                for kind, regex in _MARKER_RES.items():
                    if kind not in found and regex.match(text):
                        found[kind] = line
            self._markers = found
        return self._markers

    def has_marker(self, kind: str) -> bool:
        """Whether the module carries a standalone ``# repro: <kind>`` line."""
        return kind in self.markers()

    def noqa_comments(self) -> List[NoqaComment]:
        """Every ``# repro: noqa[...]`` comment in the module, cached."""
        if self._noqas is None:
            found: List[NoqaComment] = []
            for line, _col, text in self.comments():
                # anchored at the comment's start: prose that merely
                # mentions the noqa syntax mid-comment is not a suppression
                match = _NOQA_RE.match(text)
                if match is None:
                    continue
                listed = match.group(1)
                rules = (
                    None
                    if listed is None
                    else frozenset(item.strip() for item in listed.split(",") if item.strip())
                )
                found.append(NoqaComment(line=line, rules=rules))
            self._noqas = found
        return self._noqas

    def statement_spans(self) -> List[Tuple[int, int]]:
        """``(start, end)`` line spans of every statement, innermost-first.

        Compound statements (``def``, ``if``, ``for``, ...) contribute only
        their *header* lines — a noqa inside a function body must not
        silence a finding anchored on the ``def`` line.
        """
        if self._spans is None:
            spans: List[Tuple[int, int]] = []
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                start = node.lineno
                end = getattr(node, "end_lineno", None) or start
                body = getattr(node, "body", None)
                if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                    end = min(end, body[0].lineno - 1)
                spans.append((start, max(end, start)))
            spans.sort(key=lambda span: (span[1] - span[0], span[0]))
            self._spans = spans
        return self._spans

    def suppression_lines(self, line: int) -> range:
        """The physical lines whose noqa comments govern a finding at ``line``.

        The innermost statement span containing the line — so a suppression
        on any physical line of a wrapped, multi-line statement applies to
        findings anchored anywhere inside it.
        """
        for start, end in self.statement_spans():
            if start <= line <= end:
                return range(start, end + 1)
        return range(line, line + 1)

    def line_suppressed(self, line: int, rule: str) -> bool:
        """Whether a finding of ``rule`` anchored at ``line`` is noqa'd."""
        covered = self.suppression_lines(line)
        for noqa in self.noqa_comments():
            if noqa.line in covered and (noqa.rules is None or rule in noqa.rules):
                return True
        return False

    def suppressed(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by a noqa on its statement."""
        return self.line_suppressed(finding.line, finding.rule)

    # -- declared exemptions ---------------------------------------------

    @property
    def declared_randomized(self) -> bool:
        """Whether the module may use randomness (config list or marker)."""
        return self.module in self.config.randomized_modules or self.has_marker("randomized")

    @property
    def declared_clock(self) -> bool:
        """Whether the module is a sanctioned clock reader (list or marker).

        Unlike ``declared_randomized`` this only relaxes the ``time``
        checks of the ``determinism`` rule; ambient entropy stays flagged.
        """
        return self.module in self.config.clock_modules or self.has_marker("clock")

    @property
    def declared_workers(self) -> bool:
        """Whether the module may spawn worker processes (list or marker).

        Only relaxes the worker-pool import checks of the ``determinism``
        rule; ambient entropy and clock reads stay flagged.
        """
        return self.module in self.config.worker_modules or self.has_marker("workers")

    @property
    def declared_state(self) -> bool:
        """Whether the module may hold mutable process-global state."""
        return self.module in self.config.state_modules or self.has_marker("state")

    @property
    def in_exact_scope(self) -> bool:
        """Whether the ``exact-arith`` rule applies to this module."""
        if self.module in self.config.exact_exempt:
            return False
        return any(
            self.module == scope or self.module.startswith(scope + ".")
            for scope in self.config.exact_scopes
        )

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        """A finding anchored at ``node``'s source position."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        )


@dataclass
class ProjectUnderLint:
    """Every module of one lint run plus the lazily-built whole-program
    analyses the project rules share.

    ``raw_findings`` accumulates every *pre-suppression* finding produced
    so far (module rules first, then each project rule in registry order);
    the ``suppression-hygiene`` rule — registered last — audits it to tell
    used suppressions from stale ones.
    """

    modules: List[ModuleUnderLint]
    config: LintConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    selected: FrozenSet[str] = frozenset()
    raw_findings: List[Finding] = field(default_factory=list)
    _callgraph: object = field(default=None, repr=False, compare=False)
    _effects: object = field(default=None, repr=False, compare=False)

    def module_named(self, name: str) -> Optional[ModuleUnderLint]:
        """The module with dotted name ``name``, if this run linted it."""
        for mod in self.modules:
            if mod.module == name:
                return mod
        return None

    @property
    def callgraph(self):
        """The project-wide call graph (built on first use)."""
        if self._callgraph is None:
            from .callgraph import CallGraph

            self._callgraph = CallGraph(self.modules)
        return self._callgraph

    @property
    def effects(self):
        """The interprocedural effect analysis (built on first use)."""
        if self._effects is None:
            from .effects import EffectAnalysis

            self._effects = EffectAnalysis(self.callgraph, self.config)
        return self._effects


def module_name_for(path: Path) -> str:
    """The dotted module name of ``path``, walking up through packages.

    Climbs parent directories for as long as they contain an
    ``__init__.py``; a file outside any package is just its stem.
    """
    path = Path(path)
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _selected_rules(select: Optional[Iterable[str]]) -> FrozenSet[str]:
    """Validate a rule selection; unknown rule ids raise ``ValueError``."""
    from .rules import ALL_RULES

    if select is None:
        return frozenset(ALL_RULES)
    wanted = frozenset(select)
    unknown = sorted(wanted - set(ALL_RULES))
    if unknown:
        raise ValueError(
            f"unknown lint rule id(s): {', '.join(unknown)}; "
            f"valid rules: {', '.join(sorted(ALL_RULES))}"
        )
    return wanted


def _lint_modules(
    modules: Sequence[ModuleUnderLint],
    config: LintConfig,
    wanted: FrozenSet[str],
) -> List[Finding]:
    """Run module rules, then project rules, then apply suppressions."""
    from .rules import MODULE_RULES, PROJECT_RULES

    raw: List[Finding] = []
    for mod in modules:
        for rule_id, check in MODULE_RULES.items():
            if rule_id in wanted:
                raw.extend(check(mod))
    project = ProjectUnderLint(
        modules=list(modules), config=config, selected=wanted, raw_findings=raw
    )
    for rule_id, check in PROJECT_RULES.items():
        if rule_id in wanted:
            raw.extend(list(check(project)))

    by_path = {mod.path: mod for mod in modules}
    kept: List[Finding] = []
    for finding in raw:
        mod = by_path.get(finding.path)
        # stale-noqa reports must not be silenceable by the noqa they flag
        if finding.rule == "suppression-hygiene" or mod is None or not mod.suppressed(finding):
            kept.append(finding)
    return sorted(kept)


def _parse_module(
    source: str, path: str, module: str, config: LintConfig
) -> Tuple[Optional[ModuleUnderLint], Optional[Finding]]:
    """Parse one source text into a module-under-lint or a syntax finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            rule="syntax",
            message=f"could not parse: {exc.msg}",
        )
    mod = ModuleUnderLint(
        path=path,
        module=module,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        config=config,
    )
    return mod, None


def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one source text; returns the unsuppressed findings, sorted.

    ``module`` is the dotted module name used for scope decisions (rules
    like ``exact-arith`` are scoped by package) — pass e.g.
    ``"repro.matching.fixture"`` to lint a snippet *as if* it lived there.
    Project rules run over the single-module project.  ``select`` must name
    known rule ids; an unknown id raises :class:`ValueError` instead of
    silently selecting nothing.
    """
    config = config or DEFAULT_CONFIG
    module = module if module is not None else Path(path).stem
    wanted = _selected_rules(select)
    mod, syntax = _parse_module(source, path, module, config)
    if syntax is not None:
        return [syntax]
    assert mod is not None
    return _lint_modules([mod], config, wanted)


def _iter_py_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Yield each ``*.py`` exactly once, however many paths reach it."""
    seen = set()
    for path in paths:
        path = Path(path)
        candidates: Iterable[Path]
        if path.is_file() and path.suffix == ".py":
            candidates = [path]
        elif path.is_dir():
            candidates = (
                sub
                for sub in sorted(path.rglob("*.py"))
                if not any(
                    part.startswith(".") or part == "__pycache__" for part in sub.parts
                )
            )
        else:
            continue
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def load_modules(
    paths: Iterable, config: Optional[LintConfig] = None
) -> Tuple[List[ModuleUnderLint], List[Finding]]:
    """Parse every ``*.py`` under ``paths`` (files or directories) once.

    Returns the parsed modules, and one ``syntax`` finding per file that
    does not parse; a file passed both directly and via a parent directory
    is read once.
    """
    config = config or DEFAULT_CONFIG
    modules: List[ModuleUnderLint] = []
    syntax_findings: List[Finding] = []
    for file in _iter_py_files(Path(p) for p in paths):
        source = file.read_text(encoding="utf-8")
        mod, syntax = _parse_module(source, str(file), module_name_for(file), config)
        if syntax is not None:
            syntax_findings.append(syntax)
        else:
            assert mod is not None
            modules.append(mod)
    return modules, syntax_findings


def lint_paths(
    paths: Iterable,
    config: Optional[LintConfig] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint every ``*.py`` under ``paths`` (files or directories).

    All parseable modules (:func:`load_modules`) form one
    :class:`ProjectUnderLint`, so the interprocedural rules see every
    cross-module call path.
    """
    config = config or DEFAULT_CONFIG
    wanted = _selected_rules(select)
    modules, findings = load_modules(paths, config)
    findings.extend(_lint_modules(modules, config, wanted))
    return sorted(findings)
