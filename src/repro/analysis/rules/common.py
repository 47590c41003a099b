"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.effects import ProjectAnalysis, purity_delta
from repro.analysis.engine import FileContext, Rule, repro_module
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, dotted_name

#: Packages holding algorithm implementations (RPR004, RPR012).
ALGORITHM_PACKAGES = ("core", "multisource", "warehouse")


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted callee of a call, e.g. ``time.sleep`` or ``open``."""
    return dotted_name(node.func)


def iter_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def walk_body(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs.

    A ``raise`` or mutation inside a nested ``def``/``lambda``/class
    body does not execute inline, so the ordering-sensitive rule
    (RPR012) must not attribute it to the enclosing method.
    """
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def in_repro_package(path: str) -> bool:
    """Whether the file is part of the installed ``repro`` package."""
    return repro_module(path) is not None


def module_of(path: str) -> Tuple[str, ...]:
    """The dotted-module parts, or an empty tuple outside the package."""
    return repro_module(path) or ()


def is_cli_module(path: str) -> bool:
    """The CLI surface: ``repro/cli.py`` and any ``__main__.py``."""
    module = module_of(path)
    return bool(module) and module[-1] in ("cli", "__main__")


def in_packages(path: str, packages: Tuple[str, ...]) -> bool:
    """Whether the file sits in one of the ``repro.<package>`` layers."""
    module = module_of(path)
    return len(module) >= 2 and module[1] in packages


def named_like(node: ast.ClassDef, suffix: str) -> bool:
    """Whether the class's name, or a base class's, ends with ``suffix``."""
    names = [node.name] + [dotted_name(base) or "" for base in node.bases]
    return any(name.split(".")[-1].endswith(suffix) for name in names)


def pos(node: ast.AST) -> Tuple[int, int]:
    """``(line, col)`` sort key for ordering nodes lexically."""
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def impure_calls(
    rule: Rule,
    analysis: ProjectAnalysis,
    context: FileContext,
    function: FunctionInfo,
    reasons: Dict[str, str],
    advice: str,
) -> Iterator[Finding]:
    """The purity rules' loop (RPR007/RPR010): one finding per call in
    ``function`` whose effects hit ``reasons`` — seeded by the callee's
    name (plus :func:`~repro.analysis.effects.purity_delta`) or inferred
    through its resolved target, so a direct violation and one laundered
    through helpers are the same case."""
    for site in analysis.sites_of(function):
        hit = reasons.keys() & (
            analysis.call_effects(site) | purity_delta(site.raw)
        )
        if hit:
            effect = min(hit)
            yield context.finding(
                site.node,
                rule.rule_id,
                f"{function.display} reaches {reasons[effect]} through "
                f"{analysis.explain(site, effect)}; {advice}",
            )
