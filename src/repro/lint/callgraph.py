"""Project-wide call-graph construction for the interprocedural rules.

Builds, from the parsed modules of one lint run, a conservative static call
graph: every function (and every module body, as the pseudo-function
``<module>``), the project functions it calls, and every *external* dotted
name it references.  Resolution follows import aliases — including relative
imports and re-export chains through package ``__init__`` files — so

    from repro.obs.tracer import perf_counter

resolves ``perf_counter()`` to ``time.perf_counter`` *through* the project,
which is exactly the laundering the per-line rules cannot see.  The effect
analysis (:mod:`repro.lint.effects`) distinguishes such *covert* references
(``through_project=True``) from overt ones the import-scanning rules already
catch on their own line.

The graph is deliberately conservative: names rebound at runtime, calls
through containers, and attribute calls on unannotated objects resolve to
``unknown`` rather than guessing.  Soundness for the contract rules comes
from the *direct* effect scans — an unresolved call can hide a callee's
effects from a caller, but the callee itself is still scanned and flagged
in its own module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .engine import ModuleUnderLint
from .rules.common import attribute_chain

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "Reference",
    "Resolution",
    "MODULE_BODY",
]

#: qualname tail used for a module's top-level code.
MODULE_BODY = "<module>"

#: depth guard for re-export chains (cyclic ``__init__`` imports).
_MAX_RESOLVE_DEPTH = 16


@dataclass(frozen=True)
class Resolution:
    """What a name used in some function resolved to.

    ``kind`` is one of:

    * ``"project"`` — a function/method defined in a linted module
      (``target`` is its qualname);
    * ``"class"``   — a class defined in a linted module (``target`` is the
      class qualname; instantiation is edged to ``__init__`` when defined);
    * ``"module"``  — a linted module itself (``target`` is its name);
    * ``"external"``— a canonical dotted name outside the project
      (``target`` e.g. ``"time.perf_counter"``);
    * ``"local"``   — a function-local binding (parameter, local variable,
      nested def);
    * ``"unknown"`` — could not be resolved statically.

    ``through_project`` marks resolutions that chased at least one project
    re-export — the name as written in the using module does *not* reveal
    the external target, so per-line rules cannot flag it.
    """

    kind: str
    target: Optional[str]
    through_project: bool = False


@dataclass
class FunctionInfo:
    """One function (or module body) as a call-graph node."""

    qualname: str
    module: str
    name: str
    lineno: int
    cls: Optional[str]
    params: Tuple[str, ...]
    nodes: Tuple[ast.AST, ...]
    nested_defs: FrozenSet[str]
    local_names: FrozenSet[str]
    local_callables: FrozenSet[str]
    is_module_body: bool = False

    @property
    def annotations(self) -> Dict[str, Optional[str]]:
        """Parameter name -> dotted annotation text (best effort)."""
        out: Dict[str, Optional[str]] = {}
        for node in self.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                ann = arg.annotation
                dotted = attribute_chain(ann) if ann is not None else None
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    dotted = ann.value
                out[arg.arg] = dotted
        return out


@dataclass
class CallSite:
    """One call expression inside a function."""

    caller: str
    node: ast.Call
    resolution: Resolution
    #: trailing attribute for unresolved ``obj.attr(...)`` calls — lets the
    #: concurrency rule recognise ``pool.submit(...)`` without knowing
    #: ``pool``'s type.
    attr: Optional[str] = None


@dataclass(frozen=True)
class Reference:
    """One use of an externally-resolved dotted name inside a function."""

    caller: str
    line: int
    dotted: str
    through_project: bool


def _is_package_init(mod: ModuleUnderLint) -> bool:
    return Path(mod.path).name == "__init__.py"


class _ModuleSymbols:
    """Name bindings visible at a module's top level."""

    def __init__(self, mod: ModuleUnderLint) -> None:
        self.module = mod.module
        #: the package relative imports resolve against
        if _is_package_init(mod):
            self.package = mod.module
        else:
            self.package = mod.module.rpartition(".")[0]
        self.functions: Dict[str, str] = {}
        self.classes: Dict[str, Dict[str, str]] = {}
        self.imports: Dict[str, str] = {}
        self.assigned: Set[str] = set()
        self._collect(mod.tree)

    def _collect(self, tree: ast.AST) -> None:
        for stmt in getattr(tree, "body", []):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = f"{self.module}.{stmt.name}"
            elif isinstance(stmt, ast.ClassDef):
                methods = {
                    sub.name: f"{self.module}.{stmt.name}.{sub.name}"
                    for sub in stmt.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                self.classes[stmt.name] = methods
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            self.assigned.add(node.id)
        # imports anywhere in the module (function-local imports included:
        # they bind a narrower scope, but recording them module-wide only
        # makes resolution *more* complete, never less sound)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        self.imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute dotted module an ``from X import ...`` names."""
        if node.level == 0:
            return node.module or ""
        parts = self.package.split(".") if self.package else []
        climb = node.level - 1
        if climb > len(parts):
            return None
        kept = parts[: len(parts) - climb]
        if node.module:
            kept.append(node.module)
        return ".".join(kept) if kept else None


class CallGraph:
    """The static call graph of one lint run's modules."""

    def __init__(self, modules: Sequence[ModuleUnderLint]) -> None:
        self.modules: Dict[str, ModuleUnderLint] = {}
        self._symbols: Dict[str, _ModuleSymbols] = {}
        for mod in modules:
            if mod.module not in self.modules:
                self.modules[mod.module] = mod
                self._symbols[mod.module] = _ModuleSymbols(mod)
        self.functions: Dict[str, FunctionInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}
        self.references: Dict[str, List[Reference]] = {}
        for mod in self.modules.values():
            self._collect_functions(mod)
        for info in self.functions.values():
            self._collect_uses(info)
        #: caller qualname -> sorted unique project callee qualnames
        self.project_callees: Dict[str, List[str]] = {
            caller: sorted(
                {
                    site.resolution.target
                    for site in sites
                    if site.resolution.kind == "project" and site.resolution.target
                }
            )
            for caller, sites in self.calls.items()
        }

    # -- construction ----------------------------------------------------

    def _collect_functions(self, mod: ModuleUnderLint) -> None:
        module_nodes: List[ast.AST] = []
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls=None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(mod, sub, cls=stmt.name)
                    else:
                        module_nodes.append(sub)
                module_nodes.extend(stmt.bases)
                module_nodes.extend(stmt.decorator_list)
            else:
                module_nodes.append(stmt)
        qualname = f"{mod.module}.{MODULE_BODY}"
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=mod.module,
            name=MODULE_BODY,
            lineno=1,
            cls=None,
            params=(),
            nodes=tuple(module_nodes),
            nested_defs=frozenset(),
            local_names=frozenset(),
            local_callables=frozenset(),
            is_module_body=True,
        )

    def _add_function(
        self, mod: ModuleUnderLint, node: ast.AST, cls: Optional[str]
    ) -> None:
        name = node.name
        qualname = (
            f"{mod.module}.{cls}.{name}" if cls else f"{mod.module}.{name}"
        )
        args = node.args
        params = tuple(
            arg.arg
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        if args.vararg:
            params += (args.vararg.arg,)
        if args.kwarg:
            params += (args.kwarg.arg,)

        nested: Set[str] = set()
        local_names: Set[str] = set(params)
        local_callables: Set[str] = set()
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested.add(sub.name)
                local_names.add(sub.name)
                local_callables.add(sub.name)
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                local_names.add(sub.id)
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                local_names.add(sub.name)
            elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Lambda):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        local_callables.add(target.id)
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=mod.module,
            name=name,
            lineno=node.lineno,
            cls=cls,
            params=params,
            nodes=(node,),
            nested_defs=frozenset(nested),
            local_names=frozenset(local_names),
            local_callables=frozenset(local_callables),
        )

    # -- name resolution -------------------------------------------------

    def resolve(self, module: str, dotted: str, _depth: int = 0, _through: bool = False) -> Resolution:
        """Resolve a dotted name as used at ``module``'s top level."""
        if _depth > _MAX_RESOLVE_DEPTH:
            return Resolution("unknown", None, _through)
        syms = self._symbols.get(module)
        if syms is None:
            return Resolution("external", dotted, _through)
        head, _sep, rest = dotted.partition(".")
        if head in syms.functions:
            if rest:
                return Resolution("unknown", None, _through)
            return Resolution("project", syms.functions[head], _through)
        if head in syms.classes:
            if not rest:
                return Resolution("class", f"{module}.{head}", _through)
            first = rest.split(".")[0]
            method = syms.classes[head].get(first)
            if method and first == rest:
                return Resolution("project", method, _through)
            return Resolution("unknown", None, _through)
        if head in syms.imports:
            target = syms.imports[head] + (f".{rest}" if rest else "")
            return self.resolve_absolute(target, _depth + 1, _through)
        if head in syms.assigned:
            return Resolution("unknown", None, _through)
        return Resolution("external", dotted, _through)

    def resolve_absolute(self, dotted: str, _depth: int = 0, _through: bool = False) -> Resolution:
        """Resolve an absolute dotted name, chasing project re-exports."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self._symbols:
                rest = ".".join(parts[cut:])
                if not rest:
                    return Resolution("module", prefix, _through)
                return self.resolve(prefix, rest, _depth + 1, _through=True)
        return Resolution("external", dotted, _through)

    # -- use collection --------------------------------------------------

    def _collect_uses(self, info: FunctionInfo) -> None:
        calls: List[CallSite] = []
        refs: List[Reference] = []

        def resolve_chain(dotted: str) -> Resolution:
            head = dotted.split(".")[0]
            if head in ("self", "cls") and info.cls is not None:
                parts = dotted.split(".")
                if len(parts) == 2:
                    methods = self._symbols[info.module].classes.get(info.cls, {})
                    target = methods.get(parts[1])
                    if target:
                        return Resolution("project", target)
                return Resolution("unknown", None)
            if head in info.local_names:
                if head in info.nested_defs and "." not in dotted:
                    return Resolution("local", dotted)
                return Resolution("local" if "." not in dotted else "unknown", None)
            res = self.resolve(info.module, dotted)
            if res.kind == "class" and res.target:
                init = f"{res.target}.__init__"
                if init in self.functions:
                    return Resolution("project", init, res.through_project)
            return res

        def note(dotted: str, line: int, res: Resolution) -> None:
            if res.kind == "external" and res.target:
                refs.append(
                    Reference(
                        caller=info.qualname,
                        line=line,
                        dotted=res.target,
                        through_project=res.through_project,
                    )
                )

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.Call):
                func = node.func
                dotted = attribute_chain(func)
                if dotted is not None:
                    res = resolve_chain(dotted)
                    note(dotted, func.lineno, res)
                    attr = None
                    if res.kind in ("unknown", "local") and isinstance(func, ast.Attribute):
                        attr = func.attr
                    calls.append(
                        CallSite(caller=info.qualname, node=node, resolution=res, attr=attr)
                    )
                else:
                    calls.append(
                        CallSite(
                            caller=info.qualname,
                            node=node,
                            resolution=Resolution("unknown", None),
                            attr=func.attr if isinstance(func, ast.Attribute) else None,
                        )
                    )
                    visit(func)
                for arg in node.args:
                    visit(arg)
                for kw in node.keywords:
                    visit(kw.value)
                return
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = attribute_chain(node)
                if dotted is not None:
                    if isinstance(getattr(node, "ctx", None), ast.Load):
                        note(dotted, node.lineno, resolve_chain(dotted))
                    return  # leaf chain fully consumed (any ctx)
                if isinstance(node, ast.Attribute):
                    visit(node.value)
                return
            for child in ast.iter_child_nodes(node):
                visit(child)

        for node in info.nodes:
            visit(node)
        self.calls[info.qualname] = calls
        self.references[info.qualname] = refs

    # -- queries ---------------------------------------------------------

    def call_sites(self, caller: str, callee: str) -> List[CallSite]:
        """The sites in ``caller`` whose resolution is project ``callee``."""
        return [
            site
            for site in self.calls.get(caller, [])
            if site.resolution.kind == "project" and site.resolution.target == callee
        ]

    def functions_in(self, module: str) -> List[FunctionInfo]:
        """All function infos of one module, module body included."""
        return sorted(
            (f for f in self.functions.values() if f.module == module),
            key=lambda f: (f.lineno, f.qualname),
        )
