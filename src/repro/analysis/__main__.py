"""``python -m repro.analysis`` — the CI entry point for the linter.

Usage::

    python -m repro.analysis src tests tools --format json
    python -m repro.analysis src/repro/runtime/actors.py
    python -m repro.analysis src --sarif lint.sarif
    python -m repro.analysis --list-rules

Exit status: 0 when no error-severity finding survives pragma
suppression, 1 otherwise, and 2 (one ``error:`` line) when a named path
does not exist.  ``repro lint`` is the same engine behind the
main CLI — both build their flags with :func:`add_lint_arguments`, so
the two entry points cannot drift apart (see ``docs/ANALYSIS.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import all_rules, lint_paths, render_json, render_text


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint flags to ``parser``.

    Used by both ``python -m repro.analysis`` and ``repro lint`` so the
    two front-ends accept the same surface; ``tools/check_doc_links.py``
    validates the docs against this function's source.
    """
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        default=None,
        help="also write a SARIF 2.1.0 report to PATH (for code scanning)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute one lint invocation from parsed shared flags."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0
    if args.format == "sarif":
        from repro.analysis.report import render_sarif

        reporter = render_sarif
    elif args.format == "json":
        reporter = render_json
    else:
        reporter = render_text
    try:
        report, status = lint_paths(
            args.paths or ["src"],
            reporter,
            sarif_path=args.sarif,
        )
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checker for the repro codebase",
    )
    add_lint_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run_lint(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
