"""Interprocedural effect inference over the lint call graph.

For every function (and module body) in the project, computes the
transitive *effect set* drawn from

    {clock, entropy, float-arith, worker-spawn, kernel-mutation,
     global-mutation}

by a fixpoint over the call graph, with one crucial twist: effects are
**masked at declared exemption boundaries**.  A function's *visible*
effects are

    visible(f) = mask_{module(f)}( direct(f)  ∪  ⋃_{g called by f} visible(g) )

where ``mask`` removes each effect the defining module is sanctioned for
(``clock_modules``/``# repro: clock`` masks ``clock``, ``randomized_modules``
masks ``entropy``, ``worker_modules`` masks ``worker-spawn``,
``state_modules`` masks ``global-mutation``, ``kernel_modules`` masks
``kernel-mutation``, and being outside/exempt from the exact scopes masks
``float-arith``).  Masked effects are recorded as *contained* — they stop
propagating at the boundary, which is exactly what turns the config
allowlists into verified containment boundaries: a clock read is fine
*inside* ``repro.obs.tracer``, and fine to *call into* it, but a clock
value that leaks out via any other module shows up in every caller's
visible set until a rule flags it.

Each visible effect carries :class:`EffectSource` provenance:

* ``"overt"``  — a direct external reference the per-line rules can see on
  its own line (``time.time()`` under a plain ``import time``);
* ``"covert"`` — a direct external reference resolved *through* a project
  re-export (``from repro.obs.tracer import perf_counter``) — per-line
  rules provably cannot flag these;
* ``"direct"`` — a syntactic effect site (float literal, global store,
  kernel-internal mutation);
* ``"call"``   — inherited from a project callee (``detail`` is the callee
  qualname), the interprocedural case.

Direct sites already sanctioned by a ``# repro: noqa`` on their statement
are excluded from ``direct`` (a reviewed, line-level exemption) but kept in
``raw_direct``, which the suppression-hygiene rule uses to test marker
staleness.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import MODULE_BODY, CallGraph, FunctionInfo
from .engine import LintConfig, ModuleUnderLint
from .rules.common import attribute_chain, root_name

__all__ = [
    "EFFECTS",
    "KERNEL_INTERNALS",
    "EffectAnalysis",
    "EffectSource",
    "FunctionEffects",
    "classify_external",
]

EFFECTS = (
    "clock",
    "entropy",
    "float-arith",
    "worker-spawn",
    "kernel-mutation",
    "global-mutation",
)

#: the frozen attributes backing a GraphKernel (see graphs/kernel.py);
#: ``_soa`` is the memoized columnar-snapshot slot (graphs/soa.py).
KERNEL_INTERNALS = frozenset(
    {"_slots", "_edges", "_acc", "_next_eid", "_digest", "_soa"}
)

#: in-place mutator methods (mirrors the frozen-mutation rule's list).
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "update", "setdefault", "add", "discard", "sort", "reverse",
    }
)

#: effect -> the per-line rule whose ``# repro: noqa`` sanctions its sites.
_SANCTIONING_RULE = {
    "clock": "determinism",
    "entropy": "determinism",
    "worker-spawn": "determinism",
    "float-arith": "exact-arith",
    "kernel-mutation": "kernel-escape",
    "global-mutation": "effect-escape",
}


@dataclass(frozen=True)
class EffectSource:
    """Provenance of one effect in one function's visible set."""

    effect: str
    kind: str  # "overt" | "covert" | "direct" | "call"
    detail: str
    line: int


@dataclass
class FunctionEffects:
    """Per-function result of the analysis."""

    qualname: str
    module: str
    lineno: int
    direct: Set[str] = field(default_factory=set)
    raw_direct: Set[str] = field(default_factory=set)
    visible: Set[str] = field(default_factory=set)
    contained: Set[str] = field(default_factory=set)
    sources: Dict[str, List[EffectSource]] = field(default_factory=dict)

    def add_source(self, source: EffectSource) -> None:
        self.sources.setdefault(source.effect, []).append(source)


def classify_external(dotted: str) -> Optional[str]:
    """The ambient effect a use of external name ``dotted`` implies."""
    root = dotted.split(".", 1)[0]
    rest = dotted.split(".", 1)[1] if "." in dotted else ""
    if root == "time":
        return "clock"
    if root == "secrets":
        return "entropy"
    if dotted == "os.urandom":
        return "entropy"
    if dotted == "numpy.random" or dotted.startswith("numpy.random."):
        return "entropy"
    if root == "random" and rest and rest != "Random" and not rest.startswith("Random."):
        # random.Random itself is the sanctioned seeded construction; its
        # unseeded use is caught at the call site, not the reference.
        return "entropy"
    if root in ("multiprocessing", "threading"):
        return "worker-spawn"
    if dotted == "concurrent.futures" or dotted.startswith("concurrent.futures."):
        return "worker-spawn"
    return None


def _kernel_param_names(info: FunctionInfo) -> Set[str]:
    """Names in ``info`` that statically denote a GraphKernel."""
    names = {"kernel"} & set(info.params)
    for param, dotted in info.annotations.items():
        if dotted and dotted.split(".")[-1] == "GraphKernel":
            names.add(param)
    # conservative: a local literally named ``kernel`` is a kernel
    if "kernel" in info.local_names:
        names.add("kernel")
    return names


class EffectAnalysis:
    """Fixpoint effect inference over a :class:`CallGraph`."""

    def __init__(self, graph: CallGraph, config: LintConfig) -> None:
        self.graph = graph
        self.config = config
        self.functions: Dict[str, FunctionEffects] = {}
        #: module -> [(line, sanctioning rule)] of noqa-sanctioned direct
        #: effect sites — consumed suppressions, which the hygiene rule
        #: must count as used even though no raw finding anchors there
        self.sanctioned_sites: Dict[str, List[Tuple[int, str]]] = {}
        self._compute()

    # -- boundaries ------------------------------------------------------

    def mask_for(self, module: str) -> Set[str]:
        """The effects module ``module`` is sanctioned to contain."""
        mod = self.graph.modules.get(module)
        masked: Set[str] = set()
        if mod is None:
            return masked
        if mod.declared_clock:
            masked.add("clock")
        if mod.declared_randomized:
            masked.add("entropy")
        if mod.declared_workers:
            masked.add("worker-spawn")
        if mod.declared_state:
            masked.add("global-mutation")
        if module in self.config.kernel_modules:
            masked.add("kernel-mutation")
        if not mod.in_exact_scope:
            masked.add("float-arith")
        return masked

    # -- direct effect scan ----------------------------------------------

    def _direct_sources(
        self, info: FunctionInfo, mod: ModuleUnderLint
    ) -> List[Tuple[EffectSource, bool]]:
        """All direct effect sites of ``info`` with their sanctioned flag."""
        out: List[Tuple[EffectSource, bool]] = []

        def emit(effect: str, kind: str, detail: str, line: int) -> None:
            sanctioned = mod.line_suppressed(line, _SANCTIONING_RULE[effect])
            out.append((EffectSource(effect, kind, detail, line), sanctioned))

        # external references: ambient clock/entropy/worker names
        for ref in self.graph.references.get(info.qualname, []):
            effect = classify_external(ref.dotted)
            if effect is not None:
                kind = "covert" if ref.through_project else "overt"
                emit(effect, kind, ref.dotted, ref.line)

        # unseeded random.Random() constructions
        for site in self.graph.calls.get(info.qualname, []):
            res = site.resolution
            if (
                res.kind == "external"
                and res.target
                and (res.target == "random.Random" or res.target.endswith(".Random"))
                and res.target.split(".", 1)[0] == "random"
                and not site.node.args
                and not site.node.keywords
            ):
                kind = "covert" if res.through_project else "overt"
                emit("entropy", kind, f"{res.target}() unseeded", site.node.lineno)

        out.extend(self._syntactic_sources(info, mod))
        return out

    def _syntactic_sources(
        self, info: FunctionInfo, mod: ModuleUnderLint
    ) -> Iterator[Tuple[EffectSource, bool]]:
        kernel_names = _kernel_param_names(info)
        syms_assigned = self.graph._symbols[info.module].assigned | set(
            self.graph._symbols[info.module].classes
        )
        global_decls: Set[str] = set()
        for node in info.nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Global):
                    global_decls.update(sub.names)

        def emit(effect: str, detail: str, line: int) -> Tuple[EffectSource, bool]:
            sanctioned = mod.line_suppressed(line, _SANCTIONING_RULE[effect])
            return (EffectSource(effect, "direct", detail, line), sanctioned)

        def is_kernel_rooted(node: ast.AST) -> bool:
            return root_name(node) in kernel_names

        def touches_internals(node: ast.AST) -> bool:
            """An attribute access ``X._slots``-style with non-self root."""
            target = node
            while isinstance(target, ast.Subscript):
                target = target.value
            return (
                isinstance(target, ast.Attribute)
                and target.attr in KERNEL_INTERNALS
                and root_name(target) not in ("self", "cls")
            )

        def module_level(name: str) -> bool:
            return name not in info.local_names and name in syms_assigned

        # a local bound to a module-level name (``table = RUNS``, or the
        # variable of a ``for`` over a tuple, list or set literal of such
        # names) mutates what that name holds
        aliases: Dict[str, str] = {}
        for top in info.nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.For) and isinstance(
                    node.iter, (ast.Tuple, ast.List, ast.Set)
                ):
                    pairs = [(node.target, value) for value in node.iter.elts]
                elif isinstance(node, ast.Assign):
                    pairs = [(target, node.value) for target in node.targets]
                else:
                    continue
                for target, value in pairs:
                    if (
                        isinstance(target, ast.Name)
                        and isinstance(value, ast.Name)
                        and module_level(value.id)
                    ):
                        aliases.setdefault(target.id, value.id)

        def mutated_global(node: ast.AST) -> Optional[str]:
            """The module-level name a store/mutation target reaches into."""
            root = root_name(node)
            root = aliases.get(root, root)
            if root is None or not module_level(root):
                return None
            return root

        for top in info.nodes:
            for node in ast.walk(top):
                # float-arith
                if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                    yield emit("float-arith", f"{node.value!r} literal", node.lineno)
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    yield emit("float-arith", "true division", node.lineno)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "float"
                ):
                    yield emit("float-arith", "float() conversion", node.lineno)

                # stores and deletions
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, ast.Delete):
                        targets = node.targets
                    else:
                        targets = [node.target]
                    for target in targets:
                        if isinstance(target, (ast.Tuple, ast.List)):
                            flat = list(target.elts)
                        else:
                            flat = [target]
                        for item in flat:
                            if isinstance(item, (ast.Attribute, ast.Subscript)):
                                if is_kernel_rooted(item) or touches_internals(item):
                                    yield emit(
                                        "kernel-mutation",
                                        f"store into {ast.unparse(item)}"
                                        if attribute_chain(item) is None
                                        else f"store into {attribute_chain(item)}",
                                        item.lineno,
                                    )
                                name = mutated_global(item)
                                if name is not None:
                                    yield emit(
                                        "global-mutation",
                                        f"mutates module-level '{name}'",
                                        item.lineno,
                                    )
                            elif isinstance(item, ast.Name) and item.id in global_decls:
                                yield emit(
                                    "global-mutation",
                                    f"rebinds global '{item.id}'",
                                    item.lineno,
                                )

                # mutator method calls
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in _MUTATORS:
                        base = node.func.value
                        if is_kernel_rooted(base) or touches_internals(base):
                            yield emit(
                                "kernel-mutation",
                                f".{node.func.attr}() on kernel internals",
                                node.lineno,
                            )
                        name = mutated_global(base)
                        if name is not None:
                            yield emit(
                                "global-mutation",
                                f".{node.func.attr}() on module-level '{name}'",
                                node.lineno,
                            )

                # setattr / object.__setattr__ smuggling
                if isinstance(node, ast.Call):
                    dotted = attribute_chain(node.func)
                    is_setattr = dotted == "setattr" or dotted == "object.__setattr__"
                    if is_setattr and node.args:
                        first = node.args[0]
                        attr_arg = node.args[1] if len(node.args) > 1 else None
                        named_kernel = (
                            isinstance(first, ast.Name) and first.id in kernel_names
                        )
                        forges_internal = (
                            isinstance(attr_arg, ast.Constant)
                            and isinstance(attr_arg.value, str)
                            and attr_arg.value in KERNEL_INTERNALS
                        )
                        if named_kernel or forges_internal:
                            yield emit(
                                "kernel-mutation",
                                f"{dotted}() on kernel internals",
                                node.lineno,
                            )

    # -- fixpoint --------------------------------------------------------

    def _compute(self) -> None:
        for qualname, info in self.graph.functions.items():
            mod = self.graph.modules.get(info.module)
            fe = FunctionEffects(qualname=qualname, module=info.module, lineno=info.lineno)
            if mod is not None:
                for source, sanctioned in self._direct_sources(info, mod):
                    fe.raw_direct.add(source.effect)
                    if sanctioned:
                        self.sanctioned_sites.setdefault(info.module, []).append(
                            (source.line, _SANCTIONING_RULE[source.effect])
                        )
                    else:
                        fe.direct.add(source.effect)
                        fe.add_source(source)
            self.functions[qualname] = fe

        masks = {module: self.mask_for(module) for module in self.graph.modules}
        for fe in self.functions.values():
            mask = masks.get(fe.module, set())
            fe.visible = fe.direct - mask
            fe.contained = fe.direct & mask

        changed = True
        while changed:
            changed = False
            for qualname, fe in self.functions.items():
                mask = masks.get(fe.module, set())
                for callee in self.graph.project_callees.get(qualname, []):
                    callee_fx = self.functions.get(callee)
                    if callee_fx is None:
                        continue
                    for effect in sorted(callee_fx.visible):
                        if effect in fe.visible or effect in fe.contained:
                            continue
                        sites = self.graph.call_sites(qualname, callee)
                        line = min(
                            (s.node.lineno for s in sites),
                            default=self.graph.functions[qualname].lineno,
                        )
                        source = EffectSource(effect, "call", callee, line)
                        if effect in mask:
                            fe.contained.add(effect)
                        else:
                            fe.visible.add(effect)
                            fe.add_source(source)
                        changed = True
        for fe in self.functions.values():
            for sources in fe.sources.values():
                sources.sort(key=lambda s: (s.line, s.kind, s.detail))

    # -- queries ---------------------------------------------------------

    def path(self, qualname: str, effect: str) -> List[str]:
        """A witness chain ``[f, g, ..., external-or-site]`` for an effect."""
        chain = [qualname]
        seen = {qualname}
        current = qualname
        while True:
            fe = self.functions.get(current)
            if fe is None:
                break
            sources = fe.sources.get(effect, [])
            terminal = [s for s in sources if s.kind != "call"]
            if terminal:
                chain.append(terminal[0].detail)
                break
            forwards = [s for s in sources if s.kind == "call" and s.detail not in seen]
            if not forwards:
                break
            current = forwards[0].detail
            seen.add(current)
            chain.append(current)
        return chain

    def module_raw_direct(self, module: str) -> Set[str]:
        """Union of raw (pre-noqa) direct effects of a module's functions."""
        out: Set[str] = set()
        for fe in self.functions.values():
            if fe.module == module:
                out |= fe.raw_direct
        return out

    def lookup(self, qualname: str) -> Optional[FunctionEffects]:
        """The effects entry for a function qualname (or module body)."""
        if qualname in self.functions:
            return self.functions[qualname]
        return self.functions.get(f"{qualname}.{MODULE_BODY}")

    def model_functions(self) -> List[FunctionEffects]:
        """Effect entries for every function in the model packages."""
        out = [
            fe
            for fe in self.functions.values()
            if any(
                fe.module == pkg or fe.module.startswith(pkg + ".")
                for pkg in self.config.model_packages
            )
        ]
        return sorted(out, key=lambda fe: (fe.module, fe.lineno, fe.qualname))
