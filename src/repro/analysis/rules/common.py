"""Small AST helpers shared by the rule implementations."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.analysis.engine import repro_module
from repro.analysis.project import dotted_name

#: Packages holding algorithm implementations (RPR012).
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


def pos(node: ast.AST) -> Tuple[int, int]:
    """``(line, col)`` sort key for ordering nodes lexically."""
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))

