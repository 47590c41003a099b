"""Each invariant check, planted into the shipped source, fires exactly once.

``tests/unit/test_invariants.py`` holds the three checks, shows each on
inline snippets and runs them over ``src/repro``.  These tests close the
gap between the two: they insert one violation into a real module of
the tree — the file a regression would land in — and require the check
whose scope holds that file to report exactly the planted line, and the
legal twin of each plant (a blocking sync helper, a construction at
planning time) to report nothing.  A scope that stopped naming a file,
or a walk that stopped reaching a statement, fails here even while the
snippets still pass.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, List, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "unit"))

from test_invariants import (  # noqa: E402
    HOT_PATH,
    SRC,
    check_file,
    hot_path,
    loop_bodies,
    scan_tree,
)

ACTORS = "runtime/actors.py"
ENGINE = "relational/engine.py"


def planted(
    relative: str, picks: Callable[[ast.AST], bool], statement: str
) -> Tuple[str, int]:
    """``src/repro/<relative>`` with ``statement`` inserted as the first
    line of the body of the first node ``picks`` selects (``ast.walk``
    order: outermost first), and the line it landed on."""
    source = (SRC / relative).read_text(encoding="utf-8")
    node = next(node for node in ast.walk(ast.parse(source)) if picks(node))
    first = node.body[0]
    lines = source.splitlines(keepends=True)
    lines.insert(first.lineno - 1, " " * first.col_offset + statement + "\n")
    return "".join(lines), first.lineno


def findings_with(
    relative: str, picks: Callable[[ast.AST], bool], statement: str
) -> Tuple[List[str], int]:
    source, line = planted(relative, picks, statement)
    return check_file(relative, source), line


def is_coroutine(node: ast.AST) -> bool:
    return isinstance(node, ast.AsyncFunctionDef)


def is_function(node: ast.AST) -> bool:
    return isinstance(node, ast.FunctionDef)


def is_for_loop(node: ast.AST) -> bool:
    return isinstance(node, ast.For)


class TestDeterminismRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings, line = findings_with(ACTORS, is_coroutine, "time.time()")
        assert findings == [
            f"src/repro/{ACTORS}:{line}: determinism: time.time()"
        ]


class TestAsyncSafetyRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings, line = findings_with(ACTORS, is_coroutine, "time.sleep(0)")
        assert findings == [
            f"src/repro/{ACTORS}:{line}: async_safety: time.sleep() in async run"
        ]

    def test_sync_helpers_may_block(self):
        findings, _line = findings_with(ACTORS, is_function, "time.sleep(0)")
        assert findings == []


class TestHotPathRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings, line = findings_with(ENGINE, is_for_loop, "SignedTuple((), 1)")
        assert findings == [
            f"src/repro/{ENGINE}:{line}: hot_path: SignedTuple() in a for body"
        ]

    def test_planning_time_construction_is_clean(self):
        findings, _line = findings_with(ENGINE, is_function, "SignedTuple((), 1)")
        assert findings == []

    def test_shipped_hot_path_modules_are_clean(self):
        for relative in sorted(HOT_PATH):
            tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
            # Non-vacuous: the check walked loop bodies in every module.
            assert list(loop_bodies(tree)), relative
            assert hot_path(tree) == [], relative


@pytest.mark.parametrize("tree", ["src"])
def test_repository_lints_clean(tree):
    """The acceptance bar: the scan of ``<tree>/repro`` (shared with
    ``test_no_check_fires_on_the_tree``) finds nothing."""
    walked, findings = scan_tree()
    assert SRC.parent.name == tree
    assert walked and all((SRC / relative).is_file() for relative in walked)
    assert findings == ()
