"""Golden self-tests: each rule vs its deliberately broken fixture.

The fixtures under ``tests/analysis/fixtures/`` are skipped by directory
walks (so ``repro lint src tests benchmarks`` stays clean) but analyzed
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


@pytest.mark.parametrize("tree", ["src", "tests", "benchmarks", "tools"])
def test_repository_lints_clean(tree):
    """The acceptance bar: the final tree carries zero violations."""
    assert run_analysis([os.path.join(REPO_ROOT, tree)]) == []


class TestInterproceduralRewires:
    """RPR012 walks call sites over the whole-program model: one loop
    reports a mutation in the handler's own body (citing it) and one
    laundered through a helper (citing the call that enters it) alike."""

    def test_direct_and_transitive_messages_cite_their_witness(self):
        findings = findings_for("core/rpr012_exception.py")
        (direct,) = [f for f in findings if f.line == 8]
        assert "LeakyAlgorithm.on_answer" in direct.message
        assert "mutates via self._pending.pop() at line 6" in direct.message
        (laundered,) = [f for f in findings if f.line == 34]
        assert "TransitiveAlgorithm.handle_refresh" in laundered.message
        assert "mutates via self._retire() at line 33" in laundered.message

    def test_mutator_on_an_undotted_receiver_is_seeded(self, tmp_path):
        """``self.views[i].apply_delta()`` has no dotted callee name; the
        leaf still carries the state-mutation seed, so a handler that
        reaches it through a helper and then raises is flagged."""
        path = tmp_path / "repro" / "core" / "indexed.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "class Fanout:\n"
            "    def on_answer(self, i, delta):\n"
            "        self._push(i, delta)\n"
            "        raise ValueError(i)\n"
            "\n"
            "    def _push(self, i, delta):\n"
            "        self.views[i].apply_delta(delta)\n"
        )
        findings = run_analysis([str(tmp_path)], select=frozenset({"RPR012"}))
        assert golden(findings) == [(4, "RPR012")]


class TestSinglePass:
    """Every rule runs once over one model: nothing to dedupe, and the
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
        assert len(keys) == len(set(keys)) == 12
        assert Counter(f.rule_id for f in raw) == {
            "RPR002": 4,
            "RPR003": 3,
            "RPR009": 3,
            "RPR012": 2,
        }

    def test_name_tables_are_defined_once_in_effects(self):
        import importlib
        import pkgutil

        import repro.analysis.effects as effects
        import repro.analysis.rules as rules_package

        markers = (
            {"now", "utcnow", "today"},  # the datetime attributes
            {"time.time", "time.monotonic"},  # the clock names
            {"popitem", "setdefault"},  # the container mutators
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
            for name, members in tables(module):
                if vars(effects).get(name) is vars(module)[name]:
                    continue  # imported from effects, not a copy
                for marker in markers:
                    assert not marker <= members, (
                        f"{module.__name__}.{name} re-declares a name "
                        f"table that belongs in repro.analysis.effects"
                    )
        owned = [members for _name, members in tables(effects)]
        for marker in markers:
            assert sum(marker <= members for members in owned) == 1


class TestExceptionSafetyRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("core/rpr012_exception.py")
        assert golden(findings) == [
            (8, "RPR012"),  # raise after the handler's own pop
            (34, "RPR012"),  # raise after the mutation inside _retire()
        ]

    def test_messages_cite_the_mutation_site(self):
        findings = findings_for("core/rpr012_exception.py")
        messages = {f.line: f.message for f in findings}
        assert "self._pending.pop() at line 6" in messages[8]
        assert "self._retire() at line 33" in messages[34]

    def test_validate_first_and_reraise_idiom_are_legal(self):
        findings = findings_for("core/rpr012_exception.py")
        flagged = {f.line for f in findings}
        assert not flagged & set(range(12, 18))  # ValidatingAlgorithm
        assert not flagged & set(range(20, 29))  # HandlerAlgorithm
