"""RPR001 — routed-protocol returns.

Every kernel ships what ``on_update`` / ``on_answer`` / ``on_refresh``
return over per-source channels, so those overrides must return
``(destination, QueryRequest)`` pairs — a bare ``QueryRequest`` in the
routed position unpacks wrong deep inside the kernel, far from the
algorithm that caused it (``repro.kernel.dispatch`` now rejects it at
runtime; this rule rejects it at lint time).  The inverse mistake is
flagged too: the unrouted ``handle_*`` hooks return plain request lists
— a ``(destination, request)`` tuple there gets double-wrapped by the
base class's owner routing.  Finally, a class that overrides a routed
method while also defining the matching ``handle_*`` hook (without
delegating to it) is carrying dead code no kernel will ever call —
exactly the silent-shadowing hazard the unified protocol was built to
retire.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import call_name, dotted_name

ROUTED = ("on_update", "on_answer", "on_refresh")
UNROUTED = ("handle_update", "handle_answer", "handle_refresh")
_PAIRED = dict(zip(ROUTED, UNROUTED))

#: Base-class names that mark a warehouse-algorithm class.
_ALGORITHM_BASES = ("WarehouseAlgorithm",)


def _is_algorithm_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] in _ALGORITHM_BASES:
            return True
    defined = {
        child.name
        for child in node.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return bool(defined.intersection(ROUTED + UNROUTED))


def _is_bare_request(node: ast.AST) -> bool:
    """A ``QueryRequest(...)`` / ``self._make_request(...)`` expression."""
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    leaf = name.split(".")[-1]
    return leaf == "QueryRequest" or leaf == "_make_request"


def _list_elements(node: Optional[ast.AST]) -> List[ast.AST]:
    if isinstance(node, ast.List):
        return list(node.elts)
    if isinstance(node, ast.ListComp):
        return [node.elt]
    return []


@register
class RoutedProtocolRule(Rule):
    rule_id = "RPR001"
    title = "on_* overrides must return routed (destination, request) pairs"

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for node in ast.walk(context.tree):
                if isinstance(node, ast.ClassDef) and _is_algorithm_class(node):
                    yield from self._check_class(context, node)

    def _check_class(
        self, context: FileContext, node: ast.ClassDef
    ) -> Iterator[Finding]:
        methods: Dict[str, ast.AST] = {
            child.name: child
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for routed_name, hook_name in _PAIRED.items():
            routed_def = methods.get(routed_name)
            hook_def = methods.get(hook_name)
            if routed_def is not None:
                yield from self._check_routed(context, node, routed_def)
                if hook_def is not None and not _references(routed_def, hook_name):
                    yield context.finding(
                        hook_def,
                        self.rule_id,
                        f"{node.name}.{hook_name} is shadowed: the class "
                        f"overrides the routed {routed_name} without "
                        f"delegating, so no kernel ever calls this hook",
                    )
            if hook_def is not None:
                yield from self._check_unrouted(context, node, hook_def)

    def _check_routed(
        self, context: FileContext, cls: ast.ClassDef, func: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Return):
                for element in _list_elements(node.value):
                    if _is_bare_request(element):
                        yield context.finding(
                            element,
                            self.rule_id,
                            f"{cls.name}.{func.name} returns a bare "
                            f"QueryRequest; routed methods must return "
                            f"(destination, request) pairs "
                            f"(destination=None routes by owner)",
                        )
            elif isinstance(node, ast.Call):
                attr = node.func
                if (
                    isinstance(attr, ast.Attribute)
                    and attr.attr in ("append", "extend")
                ):
                    candidates = list(node.args)
                    if attr.attr == "extend":
                        candidates = [
                            e for arg in node.args for e in _list_elements(arg)
                        ]
                    for arg in candidates:
                        if _is_bare_request(arg):
                            yield context.finding(
                                arg,
                                self.rule_id,
                                f"{cls.name}.{func.name} collects a bare "
                                f"QueryRequest into its routed result; wrap "
                                f"it as (destination, request)",
                            )

    def _check_unrouted(
        self, context: FileContext, cls: ast.ClassDef, func: ast.AST
    ) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Return):
                for element in _list_elements(node.value):
                    if isinstance(element, ast.Tuple):
                        yield context.finding(
                            element,
                            self.rule_id,
                            f"{cls.name}.{func.name} returns a routed pair; "
                            f"unrouted handle_* hooks return plain request "
                            f"lists (the base class routes by owner)",
                        )


def _references(tree: ast.AST, name: str) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Name) and node.id == name:
            return True
    return False
