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
REGISTRY = os.path.join(REPO_ROOT, "src", "repro", "core", "registry.py")


def findings_for(relpath):
    return run_analysis([os.path.join(FIXTURES, relpath)])


def golden(findings):
    return sorted((f.line, f.rule_id) for f in findings)


class TestRoutedProtocolRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("core/rpr001_routed.py")
        assert golden(findings) == [
            (26, "RPR001"),  # bare QueryRequest returned from on_update
            (34, "RPR001"),  # bare request appended to a routed result
            (44, "RPR001"),  # routed pair returned from handle_update
            (55, "RPR001"),  # handle_update shadowed by a non-delegating on_update
        ]

    def test_messages_name_the_class_and_method(self):
        findings = findings_for("core/rpr001_routed.py")
        messages = {f.line: f.message for f in findings}
        assert "BareReturn.on_update" in messages[26]
        assert "RoutedHook.handle_update" in messages[44]
        assert "shadowed" in messages[55]


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


class TestDispatchBypassRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("core/rpr004_bypass.py")
        assert golden(findings) == [
            (16, "RPR004"),  # FifoChannel(...) construction
            (19, "RPR004"),  # .send(...) channel I/O
            (19, "RPR008"),  # explicit fixture paths run every rule
        ]


class TestObsGuardRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("runtime/rpr005_obs.py")
        assert golden(findings) == [
            (9, "RPR005"),  # unguarded self._obs deref
            (13, "RPR005"),  # unguarded alias deref
        ]

    def test_guarded_idioms_are_clean(self):
        findings = findings_for("runtime/rpr005_obs.py")
        assert all(f.line <= 13 for f in findings)


class TestRegistryCompletenessRule:
    """RPR006 inspects the live registry, so it is exercised directly."""

    def test_live_registry_is_complete(self):
        findings = [
            f
            for f in run_analysis([REGISTRY])
            if f.rule_id == "RPR006"
        ]
        assert findings == []

    def test_broken_entry_is_reported(self, monkeypatch):
        import repro.core.registry as registry_module

        class Broken:
            name = "mismatched"
            multi_source = "yes"

            def pending_state(self, extra):
                return {}

        monkeypatch.setattr(
            registry_module, "ALGORITHMS", {"broken": Broken}
        )
        findings = [
            f
            for f in run_analysis([REGISTRY])
            if f.rule_id == "RPR006"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "whose .name is 'mismatched'" in messages
        assert "multi_source must be a plain bool" in messages
        assert "pending_state() takes 1 required argument" in messages
        assert "missing the codec-v3 hook durable_config()" in messages
        assert "missing restore_pending_state" in messages


class TestPartitionerPurityRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("sharding/rpr007_partitioner.py")
        assert golden(findings) == [
            (9, "RPR007"),  # builtin hash() (process-salted)
            (14, "RPR002"),  # time.time() also trips determinism
            (14, "RPR007"),  # wall clock in shard_of
            (22, "RPR002"),  # module-level random.* also trips determinism
            (22, "RPR007"),  # randomness in shard_of
            (30, "RPR007"),  # self-attribute mutation
            (39, "RPR007"),  # global mutable state
        ]

    def test_pure_content_hash_is_allowed(self):
        findings = findings_for("sharding/rpr007_partitioner.py")
        flagged = {f.line for f in findings if f.rule_id == "RPR007"}
        assert not flagged & {45, 46, 47, 48}  # the LegalPartitioner body

    def test_pragma_suppresses_the_final_violation(self):
        findings = findings_for("sharding/rpr007_partitioner.py")
        assert 53 not in {f.line for f in findings}

    def test_messages_name_the_class_and_method(self):
        findings = findings_for("sharding/rpr007_partitioner.py")
        messages = {
            f.line: f.message for f in findings if f.rule_id == "RPR007"
        }
        assert "SaltedPartitioner.shard_of" in messages[9]
        assert "StickyPartitioner.shard_of" in messages[30]

    def test_shipped_partitioners_are_clean(self):
        path = os.path.join(
            REPO_ROOT, "src", "repro", "sharding", "partition.py"
        )
        assert [f for f in run_analysis([path]) if f.rule_id == "RPR007"] == []


class TestServingReadOnlyRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("serving/rpr008_readonly.py")
        assert golden(findings) == [
            (10, "RPR008"),  # .apply_delta() view write
            (13, "RPR008"),  # .key_delete() view write
            (16, "RPR008"),  # .replace() whole-state install
            (19, "RPR004"),  # .send() also trips dispatch-bypass
            (19, "RPR008"),  # .send() channel egress
            (22, "RPR008"),  # .algorithms structure rebind
        ]

    def test_snapshot_reads_and_str_replace_are_clean(self):
        findings = findings_for("serving/rpr008_readonly.py")
        flagged = {f.line for f in findings if f.rule_id == "RPR008"}
        assert not flagged & {31, 32, 35, 36}  # the LegalFrontend body

    def test_pragma_suppresses_the_final_violation(self):
        findings = findings_for("serving/rpr008_readonly.py")
        assert 41 not in {f.line for f in findings}

    def test_shipped_serving_package_is_clean(self):
        path = os.path.join(REPO_ROOT, "src", "repro", "serving")
        assert [f for f in run_analysis([path]) if f.rule_id == "RPR008"] == []


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


class TestPlannerPurityRule:
    def test_fixture_produces_exactly_the_expected_findings(self):
        findings = findings_for("warehouse/rpr010_planner.py")
        assert golden(findings) == [
            (9, "RPR010"),  # builtin hash() (process-salted) on a signature
            (14, "RPR002"),  # time.time() also trips determinism
            (14, "RPR010"),  # wall clock in plan()
            (19, "RPR002"),  # module-level random.* also trips determinism
            (19, "RPR010"),  # randomness in plan()
            (27, "RPR004"),  # .send() also trips dispatch-bypass
            (27, "RPR008"),  # ...and serving-readonly's egress check
            (27, "RPR010"),  # channel I/O from the planner
            (35, "RPR004"),  # FifoChannel() also trips dispatch-bypass
            (35, "RPR010"),  # channel construction in plan()
        ]

    def test_stateful_bookkeeping_is_allowed(self):
        # Unlike RPR007: the planner legitimately mutates its route table.
        findings = findings_for("warehouse/rpr010_planner.py")
        flagged = {f.line for f in findings if f.rule_id == "RPR010"}
        assert not flagged & {41, 42, 44, 45, 46}  # the LegalPlanner body

    def test_pragma_suppresses_the_final_violation(self):
        findings = findings_for("warehouse/rpr010_planner.py")
        assert 51 not in {f.line for f in findings}

    def test_messages_name_the_planner_class(self):
        findings = findings_for("warehouse/rpr010_planner.py")
        messages = {
            f.line: f.message for f in findings if f.rule_id == "RPR010"
        }
        assert "SaltedPlanner" in messages[9]
        assert "ChattyPlanner" in messages[27]

    def test_shipped_planner_and_signature_modules_are_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro", "warehouse", "planner.py"),
            os.path.join(
                REPO_ROOT, "src", "repro", "relational", "signature.py"
            ),
        ]
        assert [f for f in run_analysis(paths) if f.rule_id == "RPR010"] == []


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
    """RPR004/RPR007/RPR010 walk call sites over the whole-program model:
    one loop reports a direct violation (citing the seeded name) and one
    laundered through helpers (citing the witness chain) alike."""

    def test_planner_clock_two_hops_down(self):
        findings = findings_for("warehouse/rpr010_transitive.py")
        assert golden(findings) == [
            (11, "RPR002"),  # the helper's direct time.time()
            (21, "RPR010"),  # plan -> _delay -> _jitter -> clock
        ]
        messages = {f.rule_id: f.message for f in findings}
        assert "_jitter -> time.time (line 11)" in messages["RPR010"]

    def test_partitioner_randomness_behind_a_helper(self):
        findings = findings_for("sharding/rpr007_transitive.py")
        assert golden(findings) == [
            (11, "RPR002"),  # the helper's direct random.random()
            (21, "RPR007"),  # shard_of -> _bucket -> _salt
        ]

    def test_dispatch_bypass_laundered_through_a_helper(self):
        findings = findings_for("core/rpr004_transitive.py")
        assert golden(findings) == [
            (10, "RPR004"),  # the helper's direct send (seeded name)
            (10, "RPR008"),  # same site, serving-readonly's syntactic net
            (19, "RPR004"),  # on_update -> _ship -> send (witness chain)
        ]

    def test_direct_and_transitive_messages_cite_their_witness(self):
        """The same rule, the same loop: a direct hit names the seeded
        call, a transitive one the chain down to it."""
        (direct,) = [
            f
            for f in findings_for("warehouse/rpr010_planner.py")
            if (f.line, f.rule_id) == (14, "RPR010")
        ]
        assert "through time.time (line 14)" in direct.message
        assert "->" not in direct.message
        (deep,) = [
            f
            for f in findings_for("warehouse/rpr010_transitive.py")
            if f.rule_id == "RPR010"
        ]
        assert (
            "through _delay -> _jitter -> time.time (line 11)" in deep.message
        )
        (laundered,) = [
            f
            for f in findings_for("core/rpr004_transitive.py")
            if (f.line, f.rule_id) == (19, "RPR004")
        ]
        assert "_ship -> channel.send (line 10)" in laundered.message

    def test_channel_method_on_an_undotted_receiver_is_still_seeded(
        self, tmp_path
    ):
        """``self.channels[i].send()`` has no dotted callee name; the
        leaf still carries the channel seed."""
        path = tmp_path / "repro" / "core" / "indexed.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "class Fanout:\n"
            "    def push(self, i, message):\n"
            "        self.channels[i].send(message)\n"
        )
        findings = run_analysis([str(tmp_path)], select=frozenset({"RPR004"}))
        assert golden(findings) == [(3, "RPR004")]


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
        assert len(keys) == len(set(keys)) == 51
        assert Counter(f.rule_id for f in raw) == {
            "RPR002": 10,
            "RPR008": 8,
            "RPR004": 7,
            "RPR007": 6,
            "RPR010": 6,
            "RPR001": 4,
            "RPR003": 3,
            "RPR009": 3,
            "RPR005": 2,
            "RPR012": 2,
        }

    def test_name_tables_are_defined_once_in_effects(self):
        import importlib
        import pkgutil

        import repro.analysis.effects as effects
        import repro.analysis.rules as rules_package

        markers = (
            {"now", "utcnow", "today"},  # the datetime attributes
            {"send", "receive", "recv", "receive_nowait"},  # channel methods
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
