"""Static invariant checking for the repro codebase.

Most of the kernel's contracts are checked where the code runs:
:func:`repro.kernel.dispatch.dispatch_event` validates every routed
return, and the conformance, recovery and registry suites replay every
algorithm.  This package keeps only the invariants no run would catch
— seeded RNGs only, no blocking calls inside actor coroutines, no
per-tuple allocation in the relational hot path, handlers that validate
before they mutate.  The paper's central observation is that decoupled
components violate invariants silently (Section 2, Examples 2-3); these
are the ones that stay silent under every test.

Entry points
------------
- ``python -m repro.analysis <paths> [--format text|json]`` for CI;
- ``python -m repro lint <paths>`` as the CLI frontend;
- :func:`run_analysis` / :func:`lint_paths` programmatically.

Rules are registered in :mod:`repro.analysis.rules`; each carries a
stable ``RPR###`` id.  A finding on a specific line can be suppressed
with a ``# repro: ignore[RPR###]`` pragma on that line (see
:mod:`repro.analysis.pragmas`) — documented in ``docs/ANALYSIS.md``.
"""

from repro.analysis.engine import (
    FileContext,
    Rule,
    all_rules,
    iter_python_files,
    lint_paths,
    register,
    run_analysis,
)
from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.report import render_json, render_text

# Importing the rule modules registers every built-in rule.
from repro.analysis import rules as _rules  # noqa: F401

__all__ = [
    "ERROR",
    "WARNING",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "iter_python_files",
    "lint_paths",
    "register",
    "render_json",
    "render_text",
    "run_analysis",
]
