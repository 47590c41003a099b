#!/usr/bin/env python
"""Dead-link checker for the repo's markdown documentation.

Walks README.md, DESIGN.md, EXPERIMENTS.md, and docs/*.md, extracts
every markdown link, and verifies:

- **relative paths** resolve to an existing file or directory (relative
  to the file containing the link);
- **anchors** (``#fragment``, alone or after a path) match a heading in
  the target document, using GitHub's heading-to-anchor slug rules;
- **runtime CLI flags**: every ``--flag`` that a
  runtime-documenting file (``docs/SERVING.md``, ``docs/RELATIONAL.md``,
  ``docs/PERFORMANCE.md``, ``docs/MULTIVIEW.md``) attributes to
  ``repro runtime`` exists in the main CLI's argument parser
  (``src/repro/cli.py``, read via ``ast`` — never imported), so those
  docs cannot drift from the runtime flags they document
  (``--batch-k``, ``--wire-codec``, ``--share-compensation``, the
  serving flags, ...);
- **CLI subcommands**: every ``repro <sub>`` invocation any checked
  document shows (in a fenced block or an inline code span) names a
  subparser ``src/repro/cli.py`` actually registers, so a doc cannot
  advertise a ``repro freshness``-style entry point that does not
  exist.

External schemes (http/https/mailto) are skipped — CI must not depend
on the network.  Fenced code blocks and inline code spans are ignored
so ASCII diagrams and ``[BLT86]``-style citations don't false-positive.

Usage::

    python tools/check_doc_links.py [repo-root]

Exits 0 when every link resolves, 1 otherwise (one line per broken
link: ``file:line: target — reason``).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Set, Tuple

#: Files checked, relative to the repo root (globs allowed).
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")

#: The documents whose ``repro runtime --flag`` references are
#: validated, and the argparse module they must resolve against.
SERVING_DOC = "docs/SERVING.md"
RUNTIME_FLAG_DOCS = (
    SERVING_DOC,
    "docs/RELATIONAL.md",
    "docs/PERFORMANCE.md",
    "docs/MULTIVIEW.md",
)
RUNTIME_CLI = "src/repro/cli.py"

_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FLAG = re.compile(r"(--[A-Za-z0-9][\w-]*)")
_RUNTIME_INVOCATION = re.compile(r"repro runtime|-m repro runtime")
#: ``repro <sub>`` with a guard against ``from repro import ...`` lines
#: in fenced python examples (``repro`` followed by a keyword there).
_SUBCOMMAND = re.compile(r"(?<!from\s)\brepro\s+([a-z][a-z0-9-]*)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_FENCE = re.compile(r"^(```|~~~)")
_CODE_SPAN = re.compile(r"`[^`]*`")
_EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")


class Broken(NamedTuple):
    file: Path
    line: int
    target: str
    reason: str


def slugify(heading: str) -> str:
    """GitHub's heading → anchor id rule.

    Lowercase; markup/punctuation dropped; spaces become hyphens.
    ``"## 1. Schemas, views"`` → ``"1-schemas-views"``.
    """

    text = _CODE_SPAN.sub(lambda m: m.group(0).strip("`"), heading)
    text = re.sub(r"[*_~]", "", text).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.replace(" ", "-")


def iter_content_lines(text: str) -> Iterator[tuple]:
    """Yield (lineno, line) pairs with fenced code blocks blanked out."""

    fence: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is None:
            yield lineno, line


def anchors_of(path: Path) -> set:
    """All anchor ids a markdown file exposes (headings, deduplicated)."""

    seen: dict = {}
    out = set()
    for _, line in iter_content_lines(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if not match:
            continue
        slug = slugify(match.group(1))
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        out.add(slug if count == 0 else f"{slug}-{count}")
    return out


def check_file(path: Path, root: Path) -> List[Broken]:
    broken: List[Broken] = []
    text = path.read_text(encoding="utf-8")
    for lineno, raw_line in iter_content_lines(text):
        line = _CODE_SPAN.sub("", raw_line)
        for match in _LINK.finditer(line):
            target = match.group(1)
            if _EXTERNAL.match(target):
                continue
            dest_part, _, fragment = target.partition("#")
            if dest_part:
                dest = (path.parent / dest_part).resolve()
                try:
                    dest.relative_to(root.resolve())
                except ValueError:
                    broken.append(Broken(path, lineno, target, "escapes the repository"))
                    continue
                if not dest.exists():
                    broken.append(Broken(path, lineno, target, "no such file"))
                    continue
            else:
                dest = path
            if fragment:
                if dest.is_dir() or dest.suffix.lower() not in (".md", ".markdown"):
                    broken.append(
                        Broken(path, lineno, target, "anchor into a non-markdown target")
                    )
                elif fragment.lower() not in anchors_of(dest):
                    broken.append(
                        Broken(path, lineno, target, f"no heading for #{fragment}")
                    )
    return broken


def runtime_cli_flags(root: Path) -> Set[str]:
    """The ``--flags`` the main ``repro`` CLI's argparse defines.

    Read from the source with ``ast`` rather than imported: the checker
    must work without ``src`` on ``sys.path`` and must not execute
    library code.
    """

    flags: Set[str] = set()
    tree = ast.parse((root / RUNTIME_CLI).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            for arg in node.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    if arg.value.startswith("--"):
                        flags.add(arg.value)
    return flags


def runtime_cli_subcommands(root: Path) -> Set[str]:
    """The subcommand names the main CLI's argparse registers.

    The first positional string argument of every ``add_parser(...)``
    call, read via ``ast`` like :func:`runtime_cli_flags`.
    """

    subs: Set[str] = set()
    tree = ast.parse((root / RUNTIME_CLI).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and node.args
        ):
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                subs.add(first.value)
    return subs


def runtime_flag_references(text: str) -> Iterator[Tuple[int, str]]:
    """``(lineno, flag)`` for every runtime-CLI flag the doc mentions.

    Two reference shapes count:

    - inside fenced code blocks, flags on lines invoking ``repro runtime``;
    - inline code spans that either contain such an invocation or *are*
      a flag (``` `--batch-k 4` ```, ``` `--cache` ```) — by
      convention a span starting with ``--`` refers to the document's
      CLI.
    """

    fence: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is not None:
            if _RUNTIME_INVOCATION.search(line):
                for flag in _FLAG.findall(line):
                    yield lineno, flag
            continue
        for span in _CODE_SPAN.findall(line):
            content = span.strip("`")
            if _RUNTIME_INVOCATION.search(content) or content.startswith("--"):
                for flag in _FLAG.findall(content):
                    yield lineno, flag


def check_runtime_flags(root: Path) -> List[Broken]:
    """Dangling ``repro runtime`` flag references in the runtime docs."""

    if not (root / RUNTIME_CLI).exists():
        return []
    known: Optional[Set[str]] = None
    broken: List[Broken] = []
    for relpath in RUNTIME_FLAG_DOCS:
        doc = root / relpath
        if not doc.exists():
            continue
        if known is None:
            known = runtime_cli_flags(root)
        for lineno, flag in runtime_flag_references(
            doc.read_text(encoding="utf-8")
        ):
            if flag not in known:
                broken.append(
                    Broken(
                        doc,
                        lineno,
                        flag,
                        "no such repro runtime flag "
                        f"(parser defines: {sorted(known)})",
                    )
                )
    return broken


def subcommand_references(text: str) -> Iterator[Tuple[int, str]]:
    """``(lineno, sub)`` for every ``repro <sub>`` invocation shown.

    Only code positions count — lines inside fenced blocks and inline
    code spans — so prose like "the repro warehouse" never matches.
    """

    fence: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is not None:
            for hit in _SUBCOMMAND.finditer(line):
                yield lineno, hit.group(1)
            continue
        for span in _CODE_SPAN.findall(line):
            for hit in _SUBCOMMAND.finditer(span.strip("`")):
                yield lineno, hit.group(1)


def check_subcommands(root: Path) -> List[Broken]:
    """Dangling ``repro <sub>`` invocations anywhere in the doc set."""

    if not (root / RUNTIME_CLI).exists():
        return []
    known = runtime_cli_subcommands(root)
    broken: List[Broken] = []
    for pattern in DOC_GLOBS:
        for path in sorted(root.glob(pattern)):
            for lineno, sub in subcommand_references(
                path.read_text(encoding="utf-8")
            ):
                if sub not in known:
                    broken.append(
                        Broken(
                            path,
                            lineno,
                            f"repro {sub}",
                            "no such repro subcommand "
                            f"(parser defines: {sorted(known)})",
                        )
                    )
    return broken


def check_tree(root: Path) -> List[Broken]:
    broken: List[Broken] = []
    for pattern in DOC_GLOBS:
        for path in sorted(root.glob(pattern)):
            broken.extend(check_file(path, root))
    broken.extend(check_runtime_flags(root))
    broken.extend(check_subcommands(root))
    return broken


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    broken = check_tree(root)
    for item in broken:
        rel = item.file.relative_to(root)
        print(f"{rel}:{item.line}: {item.target} — {item.reason}")
    checked = sum(len(list(root.glob(p))) for p in DOC_GLOBS)
    if broken:
        print(f"{len(broken)} broken link(s) across {checked} file(s)")
        return 1
    print(f"all links OK across {checked} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
