"""The analysis driver: parse once, build one model, run every rule.

There is one rule shape and one pass.  :func:`run_analysis` parses
every collected file into a :class:`FileContext`, builds the
whole-program :class:`~repro.analysis.effects.ProjectAnalysis` (symbol
table, call graph, inferred effects) over all of them once, hands that
model to every rule's :meth:`Rule.check`, drops pragma-suppressed
findings, and sorts the rest.  Syntactic rules walk the ASTs
in ``analysis.contexts``; effect rules walk the call sites, where
``analysis.call_effects(site)`` joins the by-name seed with the inferred
effects of the target, so one loop reports a direct violation and one
laundered through helpers alike.

Scoping: each rule declares :meth:`Rule.applies_to` over the file's
normalized (posix, repo-relative) path.  Files under a ``fixtures/``
directory are special-cased twice: directory walks skip them (so linting
``tests`` does not flag the deliberately-broken rule fixtures), and when
named explicitly every rule applies to them regardless of its scope (so
one fixture file per rule can prove the rule fires).

The same file reached twice in one invocation (named explicitly *and*
found by a directory walk, or named via two spellings) is analyzed once:
:func:`collect_files` dedupes on the resolved filesystem path.
"""

from __future__ import annotations

import ast
import os
from pathlib import Path, PurePosixPath
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.findings import ERROR, Finding
from repro.analysis.pragmas import collect_pragmas, suppressed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.effects import ProjectAnalysis

#: Rule id reserved for files the driver cannot parse.
PARSE_ERROR = "RPR000"

#: Directory names never descended into while walking.
SKIPPED_DIRS = frozenset({"__pycache__", ".git", "fixtures", ".egg-info"})


class FileContext:
    """One analyzed file: source, AST, pragmas, and finding helpers."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.pragmas = collect_pragmas(source)

    @classmethod
    def load(cls, path: Path, display: str) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
        return cls(display, source, tree)

    def finding(
        self,
        node: ast.AST,
        rule_id: str,
        message: str,
        severity: str = ERROR,
    ) -> Finding:
        """Build a finding anchored at ``node``'s location."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            severity=severity,
        )


class Rule:
    """Base class for every registered rule.

    Subclasses set :attr:`rule_id` (stable ``RPR###`` identifier) and
    :attr:`title` (one-line summary for ``--list-rules``), and override
    :meth:`check`.
    """

    rule_id: str = ""
    title: str = ""
    severity: str = ERROR

    def applies_to(self, path: str) -> bool:
        """Whether this rule covers the file at ``path``."""
        return True

    def contexts(self, analysis: "ProjectAnalysis") -> Iterator[FileContext]:
        """The analyzed files this rule covers; an explicitly named
        fixture is covered by every rule regardless of scope."""
        for context in analysis.contexts:
            if is_fixture(context.path) or self.applies_to(context.path):
                yield context

    def check(self, analysis: "ProjectAnalysis") -> Iterator[Finding]:
        """Yield this rule's findings over the whole-program model."""
        return iter(())


#: rule id -> rule instance, in registration order.
_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = cls()
    if not rule.rule_id:
        raise ValueError(f"{cls.__name__} must set rule_id")
    if rule.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.rule_id}")
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by rule id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


# --------------------------------------------------------------------- #
# Path handling
# --------------------------------------------------------------------- #


def repro_module(path: str) -> Optional[Tuple[str, ...]]:
    """Dotted-module parts for a file inside the ``repro`` package.

    ``src/repro/runtime/actors.py`` -> ``("repro", "runtime", "actors")``;
    ``None`` for paths outside any ``repro`` package directory.
    """
    parts = PurePosixPath(path).parts
    if "repro" not in parts:
        return None
    index = parts.index("repro")
    module = list(parts[index:])
    leaf = module[-1]
    if leaf.endswith(".py"):
        module[-1] = leaf[: -len(".py")]
    if module[-1] == "__init__":
        module.pop()
    return tuple(module)


def is_fixture(path: str) -> bool:
    """Whether ``path`` sits under a ``fixtures/`` directory."""
    return "fixtures" in PurePosixPath(path).parts


def iter_python_files(paths: Sequence[str]) -> Iterator[Tuple[Path, str]]:
    """``(filesystem path, display path)`` for every ``.py`` under ``paths``.

    Directories are walked recursively, skipping :data:`SKIPPED_DIRS`;
    explicitly named files are always yielded, fixtures included.  May
    yield the same file twice when the inputs overlap — use
    :func:`collect_files` for the deduplicated list.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path, raw.replace("\\", "/")
            continue
        for found in sorted(path.rglob("*.py")):
            relative = found.relative_to(path)
            if any(
                part in SKIPPED_DIRS or part.endswith(".egg-info")
                for part in relative.parts[:-1]
            ):
                continue
            display = (PurePosixPath(raw) / PurePosixPath(*relative.parts)).as_posix()
            yield found, display


def collect_files(paths: Sequence[str]) -> List[Tuple[Path, str]]:
    """:func:`iter_python_files`, deduplicated on the resolved path.

    A file reached both as an explicit argument and through a directory
    walk (``repro lint src src/repro/cli.py``) is analyzed exactly once,
    under the first display path it was reached by.
    """
    entries: List[Tuple[Path, str]] = []
    seen: Set[str] = set()
    for path, display in iter_python_files(paths):
        key = os.path.realpath(path)
        if key in seen:
            continue
        seen.add(key)
        entries.append((path, display))
    return entries


# --------------------------------------------------------------------- #
# Running
# --------------------------------------------------------------------- #


def run_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[FrozenSet[str]] = None,
) -> List[Finding]:
    """Analyze every Python file under ``paths`` with every rule.

    ``rules`` overrides the registry (used by the self-tests);
    ``select`` keeps only the named rule ids.  Findings come back
    sorted and pragma-suppressed; nothing dedupes them.
    """
    from repro.analysis.effects import ProjectAnalysis

    active = list(rules) if rules is not None else all_rules()
    if select is not None:
        active = [rule for rule in active if rule.rule_id in select]

    findings: List[Finding] = []
    contexts: Dict[str, FileContext] = {}
    for path, display in collect_files(paths):
        try:
            contexts[display] = FileContext.load(path, display)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id=PARSE_ERROR,
                    message=f"cannot parse file: {exc.msg}",
                )
            )

    analysis = ProjectAnalysis(list(contexts.values()))
    for rule in active:
        for finding in rule.check(analysis):
            context = contexts.get(finding.path)
            if context is not None and suppressed(
                context.pragmas, finding.line, finding.rule_id
            ):
                continue
            findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    reporter: Callable[[Sequence[Finding]], str],
    *,
    sarif_path: Optional[str] = None,
) -> Tuple[str, int]:
    """Run the full analysis and render it: ``(report text, exit code)``.

    Exit code 1 when any error-severity finding survives suppression,
    0 otherwise — warnings never fail the build.  ``sarif_path``
    additionally writes a SARIF 2.1.0 log there.
    """
    findings = run_analysis(paths)
    text = reporter(findings)
    if sarif_path is not None:
        from repro.analysis.report import render_sarif

        Path(sarif_path).write_text(
            render_sarif(findings), encoding="utf-8"
        )
    failed = any(finding.severity == ERROR for finding in findings)
    return text, 1 if failed else 0
