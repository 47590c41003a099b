"""Three invariants no run would catch, checked on the source of ``repro``.

The correctness hierarchy (Section 3.1) can be checked only because a
seeded run replays exactly, and the columnar engine is fast only while
its operator loops allocate nothing per row.  A violation of any of the
three invariants below passes every test that runs the code — a clock
read in a branch no replay takes, a blocking call the virtual clock
never sees, a per-row allocation whose results stay correct — so each
is a syntactic check over the parsed source (``docs/ANALYSIS.md``):

- **determinism**: no wall clock and no unseeded randomness anywhere in
  ``repro`` but the CLI surface (``cli.py``, ``__main__.py``);
- **async safety**: no blocking call inside an ``async def`` body;
- **hot path**: no per-tuple wrapper built inside a loop or a
  comprehension of ``relational/engine.py``, ``columns.py`` or
  ``batch_ops.py``.

Each check is shown to fire on a violating snippet and to pass the
legal cases beside it, then run over every file under ``src/repro``.
"""

from __future__ import annotations

import ast
import functools
import textwrap
from pathlib import Path, PurePosixPath
from typing import FrozenSet, Iterator, List, Optional, Tuple

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``(line, what)`` for every violation a check finds.
Findings = List[Tuple[int, str]]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def named_calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Every call under ``tree`` whose callee is a dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None:
                yield node, name


# --------------------------------------------------------------------- #
# Determinism: no wall clock, no unseeded randomness
# --------------------------------------------------------------------- #

#: Wall-clock reads by dotted name (``datetime.*`` / ``date.*`` below).
CLOCK_NAMES = frozenset(
    {"time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns"}
)

#: ``datetime.<attr>`` / ``date.<attr>`` calls that read the wall clock.
DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: The CLI surface, which may read the clock (it never feeds a run).
DETERMINISM_EXEMPT = frozenset({"cli.py", "__main__.py"})


def reads_wall_clock_or_shared_rng(name: str) -> bool:
    parts = name.split(".")
    if name in CLOCK_NAMES or (
        len(parts) >= 2
        and parts[-1] in DATETIME_ATTRS
        and parts[-2] in ("datetime", "date")
    ):
        return True
    # Module-level ``random.*`` (``SystemRandom`` included) shares one
    # unseeded state; only ``random.Random(seed)`` is private.
    return name == "os.urandom" or (
        len(parts) == 2 and parts[0] == "random" and parts[1] != "Random"
    )


def determinism(tree: ast.AST) -> Findings:
    found = [
        (call.lineno, f"{name}()")
        for call, name in named_calls(tree)
        if reads_wall_clock_or_shared_rng(name)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("random", "os"):
            for alias in node.names:
                if (node.module == "random" and alias.name != "Random") or (
                    node.module == "os" and alias.name == "urandom"
                ):
                    found.append(
                        (node.lineno, f"from {node.module} import {alias.name}")
                    )
    return sorted(found)


# --------------------------------------------------------------------- #
# Async safety: no blocking call inside an actor coroutine
# --------------------------------------------------------------------- #

#: Calls that stall every actor: the event loop yields cooperatively, so
#: one blocking call turns a reproducible interleaving into a
#: machine-dependent one.  Every ``subprocess.*`` call counts too.
BLOCKING = frozenset({"time.sleep", "open", "io.open", "os.system"})


def async_safety(tree: ast.AST) -> Findings:
    return sorted(
        (call.lineno, f"{name}() in async {func.name}")
        for func in ast.walk(tree)
        if isinstance(func, ast.AsyncFunctionDef)
        for call, name in named_calls(func)
        if name in BLOCKING or name.startswith("subprocess.")
    )


# --------------------------------------------------------------------- #
# Hot path: no per-tuple wrapper inside the columnar engine's loops
# --------------------------------------------------------------------- #

HOT_PATH = frozenset(
    {"relational/engine.py", "relational/columns.py", "relational/batch_ops.py"}
)

#: Per-tuple wrapper constructors (by class name, however imported).
WRAPPERS = frozenset(
    {"SignedTuple", "BoundOperand", "RelationOperand", "Term", "Query"}
)

LOOPS = (ast.For, ast.AsyncFor, ast.While)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def loop_bodies(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """``(kind, region)`` for every region run once per iteration: a
    statement of a loop body, or a whole comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, LOOPS):
            for statement in node.body + node.orelse:
                yield type(node).__name__.lower(), statement
        elif isinstance(node, COMPREHENSIONS):
            yield "comprehension", node


def hot_path(tree: ast.AST) -> Findings:
    found = {}
    for kind, region in loop_bodies(tree):
        for call, name in named_calls(region):
            leaf = name.split(".")[-1]
            # Nested loops walk overlapping regions: report a call once.
            if leaf in WRAPPERS and call not in found:
                found[call] = (call.lineno, f"{leaf}() in a {kind} body")
    return sorted(found.values())


# --------------------------------------------------------------------- #
# Each check catches its violation and passes the legal cases
# --------------------------------------------------------------------- #


def parse(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


def flagged(findings: Findings) -> List[str]:
    return [what for _line, what in findings]


def test_determinism_flags_clocks_and_unseeded_randomness():
    tree = parse(
        """
        import os
        import random
        import time
        from datetime import datetime
        from random import Random, shuffle
        from os import path, urandom

        def stamps():
            return (time.time(),
                    datetime.now())

        def entropy():
            return (random.random(),
                    os.urandom(8))
        """
    )
    assert determinism(tree) == [
        (6, "from random import shuffle"),
        (7, "from os import urandom"),
        (10, "time.time()"),
        (11, "datetime.now()"),
        (14, "random.random()"),
        (15, "os.urandom()"),
    ]


def test_determinism_allows_a_seeded_rng_and_perf_counter():
    tree = parse(
        """
        import random
        import time

        def legal_seeded(seed):
            rng = random.Random(seed)
            started = time.perf_counter()
            return rng.randint(0, 10), started
        """
    )
    assert determinism(tree) == []


def test_async_safety_flags_blocking_calls_in_coroutines_only():
    tree = parse(
        """
        import asyncio
        import subprocess
        import time

        async def blocking_actor(path):
            time.sleep(0.1)
            data = open(path).read()
            subprocess.run(["true"])
            await asyncio.sleep(0)
            return data

        def sync_helper(path):
            time.sleep(0.1)
            with open(path) as handle:
                return handle.read()
        """
    )
    assert flagged(async_safety(tree)) == [
        "time.sleep() in async blocking_actor",
        "open() in async blocking_actor",
        "subprocess.run() in async blocking_actor",
    ]


def test_hot_path_flags_wrappers_built_per_row_not_at_planning_time():
    tree = parse(
        """
        def per_row(rows):
            out = []
            for row in rows:
                out.append(SignedTuple(row, 1))
            index = 0
            while index < len(rows):
                out.append(BoundOperand(rows[index]))
                index += 1
            return out + [Term((row,)) for row in rows]

        def planning_time(rows):
            first = SignedTuple(rows[0], 1) if rows else None
            columns = [list(column) for column in zip(*rows)]
            return first, columns
        """
    )
    assert flagged(hot_path(tree)) == [
        "SignedTuple() in a for body",
        "BoundOperand() in a while body",
        "Term() in a comprehension body",
    ]


def test_a_nested_loop_reports_its_allocation_once():
    tree = parse(
        """
        def nested(groups):
            for rows in groups:
                for row in rows:
                    yield Query([row])
        """
    )
    assert hot_path(tree) == [(5, "Query() in a for body")]


# --------------------------------------------------------------------- #
# The tree
# --------------------------------------------------------------------- #


def check_file(relative: str, source: str) -> List[str]:
    """Every finding of the checks whose scope holds ``src/repro/<relative>``."""
    tree = ast.parse(source, filename=f"src/repro/{relative}")
    checks = [async_safety]
    if PurePosixPath(relative).name not in DETERMINISM_EXEMPT:
        checks.append(determinism)
    if relative in HOT_PATH:
        checks.append(hot_path)
    return [
        f"src/repro/{relative}:{line}: {check.__name__}: {what}"
        for check in checks
        for line, what in check(tree)
    ]


@functools.lru_cache(maxsize=None)
def scan_tree() -> Tuple[FrozenSet[str], Tuple[str, ...]]:
    """``(files walked, findings)`` over ``src/repro``, parsed once per run."""
    walked, findings = set(), []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        walked.add(relative)
        findings.extend(check_file(relative, path.read_text(encoding="utf-8")))
    return frozenset(walked), tuple(findings)


def test_no_check_fires_on_the_tree():
    walked, findings = scan_tree()
    assert findings == ()
    # Every scope names files that exist: the checks ran on something.
    assert HOT_PATH | {"runtime/actors.py", "cli.py", "__main__.py"} <= walked
