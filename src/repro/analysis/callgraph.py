"""Whole-program call graph over the :class:`~repro.analysis.project.Project`.

Every ``ast.Call`` inside every registered function becomes one
:class:`CallSite`.  A site either *resolves* to a project function
(``target`` is its qualname — the soundness contract the property tests
pin is that every call to a locally-defined symbol resolves) or is
recorded as ⊤ (``target is None``): a stdlib call, a dynamically
dispatched callable, or anything else the static resolver cannot see.

⊤ sites are kept, not dropped — :mod:`repro.analysis.effects` treats
them *optimistically* (no inferred effects) because the alternative,
poisoning every caller of ``len()`` with every effect, would make the
whole tree flag.  The seed tables in ``effects.py`` are exactly the
compensating pessimism: the known-dangerous leaf names carry their
effects by name even when unresolved.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    dotted_name,
    local_instance_types,
    receiver_root,
)


@dataclass
class CallSite:
    """One call expression inside one analyzed function."""

    node: ast.Call
    #: Dotted callee text (``self._retire``, ``time.time``; ``<expr>.leaf``
    #: for a method of an arbitrary expression), or None for calls on
    #: non-attribute expressions (``x[0]()``, ``f()()``).
    raw: Optional[str]
    #: Qualname of the resolved project function, or None (⊤).
    target: Optional[str]

    @property
    def line(self) -> int:
        return self.node.lineno

    @property
    def col(self) -> int:
        return self.node.col_offset

    @property
    def self_receiver(self) -> bool:
        """Whether the callee chain is rooted at ``self``."""
        return receiver_root(self.node.func) == "self"


class CallGraph:
    """caller qualname → call sites."""

    def __init__(self) -> None:
        self.calls: Dict[str, List[CallSite]] = {}

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        for function in project.functions.values():
            module = project.modules.get(function.module)
            sites = _collect_sites(project, module, function)
            graph.calls[function.qualname] = sites
        return graph

    def sites(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])


def _collect_sites(
    project: Project,
    module: Optional[ModuleInfo],
    function: FunctionInfo,
) -> List[CallSite]:
    local_types = local_instance_types(project, module, function.node)
    sites: List[CallSite] = []
    for node in ast.walk(function.node):
        if isinstance(node, ast.Call):
            sites.append(
                _resolve_call(project, module, function, local_types, node)
            )
    sites.sort(key=lambda s: (s.line, s.col))
    return sites


def _resolve_call(
    project: Project,
    module: Optional[ModuleInfo],
    function: FunctionInfo,
    local_types: Dict[str, str],
    node: ast.Call,
) -> CallSite:
    raw = dotted_name(node.func)
    if raw is None and isinstance(node.func, ast.Attribute):
        # ``self.views[i].apply_delta(...)``: no dotted receiver, but
        # the leaf name still carries its seeded effects.
        raw = f"<expr>.{node.func.attr}"
    if raw is None:
        return CallSite(node=node, raw=None, target=None)
    parts = raw.split(".")
    target = _resolve_parts(project, module, function, local_types, parts)
    return CallSite(node=node, raw=raw, target=target)


def _resolve_parts(
    project: Project,
    module: Optional[ModuleInfo],
    function: FunctionInfo,
    local_types: Dict[str, str],
    parts: List[str],
) -> Optional[str]:
    head = parts[0]
    if head in ("self", "cls") and function.class_name is not None:
        klass = project.class_of(function)
        if klass is None:
            return None
        if len(parts) == 2:
            return _qualname(project.method_on(klass, parts[1]))
        if len(parts) == 3:
            attr_class = project.classes.get(
                klass.attr_types.get(parts[1], "")
            )
            if attr_class is not None:
                return _qualname(project.method_on(attr_class, parts[2]))
        return None
    if head in local_types and len(parts) == 2:
        owner = project.classes.get(local_types[head])
        if owner is not None:
            return _qualname(project.method_on(owner, parts[1]))
        return None
    resolved = project.resolve_name(module, ".".join(parts))
    if isinstance(resolved, FunctionInfo):
        return resolved.qualname
    if isinstance(resolved, ClassInfo):
        return _qualname(project.method_on(resolved, "__init__"))
    return None


def _qualname(function: Optional[FunctionInfo]) -> Optional[str]:
    return function.qualname if function is not None else None
