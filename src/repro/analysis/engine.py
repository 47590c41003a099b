"""The analysis driver: parse once, build one model, run every rule.

There is one rule shape and one pass.  :func:`execute_analysis` parses
every collected file into a :class:`FileContext`, builds the
whole-program :class:`~repro.analysis.effects.ProjectAnalysis` (symbol
table, call graph, inferred effects) over all of them once, hands that
model to every rule's :meth:`Rule.check`, drops pragma-suppressed
findings, and buckets the rest by path.  Syntactic rules walk the ASTs
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
from dataclasses import dataclass, field
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
    #: Findings that depend on more than the analyzed sources (RPR006
    #: imports the live registry) are never reused from the cache.
    recompute_every_run: bool = False

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


@dataclass
class AnalysisResult:
    """Output of one :func:`execute_analysis` invocation, already
    pragma-suppressed and bucketed so the incremental cache can reuse
    the buckets of unchanged files."""

    #: display path → findings, with an entry for every analyzed file.
    by_path: Dict[str, List[Finding]] = field(default_factory=dict)
    #: findings of ``recompute_every_run`` rules (never cached per file).
    uncached: List[Finding] = field(default_factory=list)
    #: display path → display paths its functions call into.
    file_deps: Dict[str, List[str]] = field(default_factory=dict)

    def findings(self) -> List[Finding]:
        """Every bucket's findings in report order."""
        merged = [f for bucket in self.by_path.values() for f in bucket]
        return sorted(merged + self.uncached)


def execute_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[FrozenSet[str]] = None,
    *,
    limit: Optional[Set[str]] = None,
) -> AnalysisResult:
    """Run the full pipeline, returning bucketed findings.

    ``limit`` restricts which display paths get findings recorded (the
    incremental cache supplies the rest) — every file is still parsed
    and modelled, because effects propagate across files either way.
    """
    from repro.analysis.effects import ProjectAnalysis

    active = list(rules) if rules is not None else all_rules()
    if select is not None:
        active = [rule for rule in active if rule.rule_id in select]

    result = AnalysisResult()
    contexts: Dict[str, FileContext] = {}
    for path, display in collect_files(paths):
        bucket: List[Finding] = []
        try:
            contexts[display] = FileContext.load(path, display)
        except SyntaxError as exc:
            bucket.append(
                Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    rule_id=PARSE_ERROR,
                    message=f"cannot parse file: {exc.msg}",
                )
            )
        if limit is None or display in limit:
            result.by_path[display] = bucket

    analysis = ProjectAnalysis(list(contexts.values()))
    for rule in active:
        for finding in rule.check(analysis):
            context = contexts.get(finding.path)
            if context is not None and suppressed(
                context.pragmas, finding.line, finding.rule_id
            ):
                continue
            if rule.recompute_every_run:
                result.uncached.append(finding)
            elif limit is None or finding.path in limit:
                result.by_path.setdefault(finding.path, []).append(finding)
    result.file_deps = {
        display: sorted(deps)
        for display, deps in analysis.file_dependencies().items()
    }
    return result


def run_analysis(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[FrozenSet[str]] = None,
) -> List[Finding]:
    """Analyze every Python file under ``paths`` with every rule.

    ``rules`` overrides the registry (used by the self-tests);
    ``select`` keeps only the named rule ids.  Findings come back
    sorted and pragma-suppressed.
    """
    return execute_analysis(paths, rules, select).findings()


def lint_paths(
    paths: Sequence[str],
    reporter: Callable[[Sequence[Finding]], str],
    *,
    changed: bool = False,
    cache_dir: Optional[str] = None,
    sarif_path: Optional[str] = None,
) -> Tuple[str, int]:
    """Run the full analysis and render it: ``(report text, exit code)``.

    Exit code 1 when any error-severity finding survives suppression,
    0 otherwise — warnings never fail the build.  ``changed=True``
    consults the content-hash cache under ``cache_dir`` and re-analyzes
    only dirty files plus their call-graph dependents; a full run
    (re)populates the same cache so the next ``--changed`` run is warm.
    ``sarif_path`` additionally writes a SARIF 2.1.0 log there.
    """
    from repro.analysis.cache import (
        DEFAULT_CACHE_DIR,
        incremental_analysis,
        store_result,
    )

    directory = cache_dir or DEFAULT_CACHE_DIR
    if changed:
        findings, _stats = incremental_analysis(paths, cache_dir=directory)
    else:
        result = execute_analysis(paths)
        store_result(result, cache_dir=directory)
        findings = result.findings()
    text = reporter(findings)
    if sarif_path is not None:
        from repro.analysis.report import render_sarif

        Path(sarif_path).write_text(
            render_sarif(findings), encoding="utf-8"
        )
    failed = any(finding.severity == ERROR for finding in findings)
    return text, 1 if failed else 0
