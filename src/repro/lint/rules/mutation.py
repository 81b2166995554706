"""``frozen-mutation`` — contexts, views and balls are immutable.

A :class:`repro.local.context.NodeContext` is a frozen snapshot of what a
node may see; view trees are nested tuples equal to the truncated universal
cover; neighbourhood :class:`~repro.graphs.neighborhoods.Ball`s are shared
sub-views.  Mutating any of them from algorithm code would (a) leak
information between nodes through a shared object, and (b) silently
invalidate the lift-invariance argument that makes the simulator runs equal
their universal-cover semantics.  The dataclass is ``frozen`` and
``globals`` is a read-only mapping proxy, but Python offers escape hatches;
this rule closes them statically.

(Post-freeze mutation of :class:`repro.graphs.kernel.GraphKernel` internals
is covered by the interprocedural ``kernel-escape`` rule, which tracks the
kernel's actual frozen slots instead of guessing from variable names.)

Flagged, for any object rooted at a context-like name (a parameter named
``ctx`` or annotated ``NodeContext``, or a variable named ``view`` /
``ball``):

* attribute or subscript assignment / deletion (``ctx.model = ...``,
  ``ctx.globals["k"] = v``, ``del ball.distances[v]``);
* calls to in-place mutators (``ctx.globals.update(...)``,
  ``ball.distances.pop(...)``);
* ``setattr`` / ``object.__setattr__`` with such an object as target.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..engine import Finding, ModuleUnderLint
from .common import ctx_param_names, root_name

RULE_ID = "frozen-mutation"

_TRACKED_NAMES = {"ctx", "view", "ball"}
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
}


def _is_tracked_store(node: ast.AST, roots: Set[str]) -> bool:
    """An Attribute/Subscript store/del reaching *into* a tracked object."""
    if not isinstance(node, (ast.Attribute, ast.Subscript)):
        return False
    if not isinstance(node.ctx, (ast.Store, ast.Del)):
        return False
    return root_name(node) in roots


def _check_scope(mod: ModuleUnderLint, scope: ast.AST, roots: Set[str]) -> Iterator[Finding]:
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _check_scope(mod, node, _TRACKED_NAMES | ctx_param_names(node))
            continue
        yield from _check_node(mod, node, roots)
        yield from _check_scope(mod, node, roots)


def _check_node(mod: ModuleUnderLint, node: ast.AST, roots: Set[str]) -> Iterator[Finding]:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = (
            node.targets
            if isinstance(node, (ast.Assign, ast.Delete))
            else [node.target]
        )
        for target in targets:
            if _is_tracked_store(target, roots):
                yield mod.finding(
                    target,
                    RULE_ID,
                    f"in-place mutation of frozen object "
                    f"{root_name(target)!r}; contexts, views and balls are "
                    f"immutable inputs",
                )
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATORS
            and isinstance(func.value, (ast.Attribute, ast.Subscript))
            and root_name(func.value) in roots
        ):
            yield mod.finding(
                node,
                RULE_ID,
                f"mutating call .{func.attr}() on frozen object "
                f"{root_name(func.value)!r}",
            )
        elif isinstance(func, ast.Name) and func.id == "setattr" and node.args:
            if root_name(node.args[0]) in roots:
                yield mod.finding(
                    node, RULE_ID, "setattr on a frozen context/view/ball"
                )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and node.args
            and root_name(node.args[0]) in roots
        ):
            yield mod.finding(
                node,
                RULE_ID,
                "object.__setattr__ escape hatch on a frozen context/view/ball",
            )


def check(mod: ModuleUnderLint) -> Iterator[Finding]:
    """Flag in-place mutation of context-like objects anywhere in the module."""
    yield from _check_scope(mod, mod.tree, set(_TRACKED_NAMES))
