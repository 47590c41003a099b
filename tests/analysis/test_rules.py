"""Golden self-tests: each rule vs its deliberately broken fixture.

The fixtures under ``tests/analysis/fixtures/`` are skipped by directory
walks (so ``repro lint src tests tools`` stays clean) but analyzed
in full when named explicitly — which is what these tests do.  Each test
pins the exact ``(line, rule_id)`` set a fixture must produce: a rule
that stops firing *or* starts over-firing fails the golden comparison.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis import run_analysis

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "repro")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def findings_for(relpath):
    return run_analysis([os.path.join(FIXTURES, relpath)])


def golden(findings):
    return sorted((f.line, f.rule_id) for f in findings)


class TestDeterminismRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("runtime/rpr002_determinism.py")
        assert golden(findings) == [
            (10, "RPR002"),  # time.time()
            (14, "RPR002"),  # datetime.now()
            (18, "RPR002"),  # unseeded random.random()
            (22, "RPR002"),  # os.urandom()
        ]

    def test_seeded_rng_and_perf_counter_are_allowed(self):
        findings = findings_for("runtime/rpr002_determinism.py")
        flagged = {f.line for f in findings}
        assert not flagged & {28, 29, 30}  # the legal_seeded body

    def test_pragma_suppresses_the_final_violation(self):
        findings = findings_for("runtime/rpr002_determinism.py")
        assert 34 not in {f.line for f in findings}


class TestAsyncSafetyRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("runtime/rpr003_async.py")
        assert golden(findings) == [
            (9, "RPR003"),  # time.sleep in a coroutine
            (10, "RPR003"),  # open().read() in a coroutine
            (11, "RPR003"),  # subprocess.run in a coroutine
        ]

    def test_sync_helpers_may_block(self):
        findings = findings_for("runtime/rpr003_async.py")
        assert all(f.line <= 11 for f in findings)


class TestHotPathRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("relational/engine.py")
        assert golden(findings) == [
            (28, "RPR009"),  # SignedTuple per row in a for body
            (36, "RPR009"),  # BoundOperand per row in a while body
            (42, "RPR009"),  # Term per row in a comprehension
        ]

    def test_planning_time_construction_is_clean(self):
        findings = findings_for("relational/engine.py")
        assert 47 not in {f.line for f in findings}

    def test_shipped_hot_path_modules_are_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro", "relational", name)
            for name in ("engine.py", "columns.py", "batch_ops.py")
        ]
        assert [f for f in run_analysis(paths) if f.rule_id == "RPR009"] == []

    def test_rule_does_not_apply_outside_hot_path_modules(self):
        # bag.py iterates signed tuples by design; the rule must not fire.
        path = os.path.join(REPO_ROOT, "src", "repro", "relational", "bag.py")
        assert [f for f in run_analysis([path]) if f.rule_id == "RPR009"] == []


class TestSeverityAndOrdering:
    def test_findings_are_sorted_and_error_severity(self):
        findings = findings_for("runtime/rpr002_determinism.py")
        assert findings == sorted(findings)
        assert all(f.severity == "error" for f in findings)


@pytest.mark.parametrize("tree", ["src", "tests", "tools"])
def test_repository_lints_clean(tree):
    """The acceptance bar: the final tree carries zero violations."""
    assert run_analysis([os.path.join(REPO_ROOT, tree)]) == []


class TestSinglePass:
    """Every rule runs once per file: nothing to dedupe, and the
    banned-name tables exist in exactly one module."""

    def test_every_fixture_position_is_reported_exactly_once(self):
        from collections import Counter

        fixtures = sorted(
            os.path.join(root, name)
            for root, _dirs, names in os.walk(FIXTURES)
            for name in names
            if name.endswith(".py")
        )
        raw = run_analysis(fixtures)
        keys = [(f.path, f.line, f.col, f.rule_id) for f in raw]
        assert len(keys) == len(set(keys)) == 10
        assert Counter(f.rule_id for f in raw) == {
            "RPR002": 4,
            "RPR003": 3,
            "RPR009": 3,
        }

    def test_name_tables_are_defined_once_in_determinism(self):
        import importlib
        import pkgutil

        import repro.analysis.rules as rules_package
        import repro.analysis.rules.determinism as determinism

        markers = (
            {"now", "utcnow", "today"},  # the datetime attributes
            {"time.time", "time.monotonic"},  # the clock names
        )

        def tables(module):
            for name, value in vars(module).items():
                if isinstance(value, (tuple, list, set, frozenset, dict)):
                    try:
                        yield name, set(value)
                    except TypeError:
                        continue

        for info in pkgutil.iter_modules(rules_package.__path__):
            module = importlib.import_module(
                f"{rules_package.__name__}.{info.name}"
            )
            if module is determinism:
                continue
            for name, members in tables(module):
                for marker in markers:
                    assert not marker <= members, (
                        f"{module.__name__}.{name} re-declares a name table "
                        f"that belongs in repro.analysis.rules.determinism"
                    )
        owned = [members for _name, members in tables(determinism)]
        for marker in markers:
            assert sum(marker <= members for members in owned) == 1
