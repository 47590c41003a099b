"""Integration: self-join views (multiple occurrences of one relation).

Section 4: "Our algorithms can be extended to allow multiple occurrences
of the same relation (e.g., by handling updates to such relations once
for each appearance of the relation)."  We implement the extension with
relation aliases and inclusion-exclusion substitution
(``Term.substitute_update``), which provably preserves Lemma B.2 — so ECA
and friends work unchanged.  These tests drive a 'colleagues' view (pairs
of employees sharing a department) through the full stack.
"""

import pytest

from repro.consistency import check_trace
from repro.core.registry import create_algorithm
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import BestCaseSchedule, RandomSchedule, WorstCaseSchedule
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.source.updates import delete, insert
from repro.workloads.random_gen import random_workload

EMP = RelationSchema("emp", ("name", "dept"))
INITIAL = {"emp": [(1, 10), (2, 10), (3, 20)]}


def colleagues_view() -> View:
    """pairs (a, b) of employees in the same department, a < b."""
    e1, e2 = EMP.aliased("e1"), EMP.aliased("e2")
    condition = Comparison(Attr("e1.dept"), "=", Attr("e2.dept")) & Comparison(
        Attr("e1.name"), "<", Attr("e2.name")
    )
    return View("colleagues", [e1, e2], ["e1.name", "e2.name"], condition)


class TestAliasing:
    def test_aliased_schema_keeps_base(self):
        alias = EMP.aliased("e1")
        assert alias.name == "e1"
        assert alias.base == "emp"
        assert alias.is_alias
        assert not EMP.is_alias
        assert alias.attributes == EMP.attributes

    def test_view_involves_base_relation(self):
        view = colleagues_view()
        assert view.involves("emp")
        assert view.involves("e1")  # by occurrence name too
        assert not view.involves("zzz")

    def test_oracle_evaluation(self):
        view = colleagues_view()
        state = {"emp": SignedBag.from_rows(INITIAL["emp"])}
        assert sorted(evaluate_view(view, state).expand_rows()) == [(1, 2)]

    def test_sqlite_evaluates_aliased_view(self):
        view = colleagues_view()
        with SQLiteSource([EMP], INITIAL) as source:
            answer = source.evaluate(view.as_query())
        assert sorted(answer.expand_rows()) == [(1, 2)]


class TestSubstitutionExpansion:
    def test_insert_expands_to_three_terms(self):
        view = colleagues_view()
        query = view.substitute("emp", insert("emp", (4, 10)).signed_tuple())
        assert query.term_count() == 3
        assert sorted(t.coefficient for t in query.terms) == [-1, 1, 1]

    def test_insert_delta_is_exact(self):
        view = colleagues_view()
        before = {"emp": SignedBag.from_rows(INITIAL["emp"])}
        after = {"emp": before["emp"] + SignedBag.singleton((4, 10))}
        delta = view.substitute(
            "emp", insert("emp", (4, 10)).signed_tuple()
        ).evaluate(after)
        assert evaluate_view(view, before) + delta == evaluate_view(view, after)

    def test_delete_delta_is_exact(self):
        view = colleagues_view()
        before = {"emp": SignedBag.from_rows(INITIAL["emp"])}
        after = {"emp": before["emp"] - SignedBag.singleton((2, 10))}
        delta = view.substitute(
            "emp", delete("emp", (2, 10)).signed_tuple()
        ).evaluate(after)
        assert evaluate_view(view, before) + delta == evaluate_view(view, after)

    def test_fully_bound_occurrences_vanish(self):
        view = colleagues_view()
        term = view.as_query().terms[0]
        expansion = term.substitute_update(
            "emp", insert("emp", (4, 10)).signed_tuple()
        )
        # The doubly-bound term is fully bound; substituting again on the
        # same relation yields the empty expansion.
        doubly = [t for t in expansion if t.is_fully_bound()]
        assert len(doubly) == 1
        assert doubly[0].substitute_update(
            "emp", insert("emp", (5, 10)).signed_tuple()
        ) == []


class TestAlgorithmsOnSelfJoins:
    @pytest.mark.parametrize("algorithm", ["eca", "eca-local", "lca"])
    def test_strongly_consistent_under_random_interleavings(self, algorithm):
        view = colleagues_view()
        for seed in range(8):
            workload = random_workload([EMP], 8, seed=seed, initial=INITIAL, domain=4)
            source = MemorySource([EMP], INITIAL)
            warehouse = create_algorithm(
                algorithm, view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(RandomSchedule(seed))
            report = check_trace(view, trace)
            assert report.strongly_consistent, (algorithm, seed, report.detail)

    def test_lca_complete_on_self_join(self):
        view = colleagues_view()
        workload = random_workload([EMP], 8, seed=5, initial=INITIAL, domain=4)
        source = MemorySource([EMP], INITIAL)
        warehouse = create_algorithm("lca", view, evaluate_view(view, source.snapshot()))
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        assert check_trace(view, trace).complete

    def test_basic_anomalous_on_self_join_somewhere(self):
        view = colleagues_view()
        broken = 0
        for seed in range(20):
            workload = random_workload([EMP], 8, seed=seed, initial=INITIAL, domain=4)
            source = MemorySource([EMP], INITIAL)
            warehouse = create_algorithm(
                "basic", view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(
                RandomSchedule(seed + 7)
            )
            if not check_trace(view, trace).convergent:
                broken += 1
        assert broken > 0

    def test_sqlite_source_end_to_end(self):
        view = colleagues_view()
        workload = random_workload([EMP], 6, seed=2, initial=INITIAL, domain=4)
        source = SQLiteSource([EMP], INITIAL)
        warehouse = create_algorithm("eca", view, evaluate_view(view, source.snapshot()))
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        source.close()
        assert check_trace(view, trace).strongly_consistent

    def test_recompute_on_self_join(self):
        view = colleagues_view()
        workload = random_workload([EMP], 6, seed=3, initial=INITIAL, domain=4)
        source = MemorySource([EMP], INITIAL)
        warehouse = create_algorithm(
            "recompute", view, evaluate_view(view, source.snapshot()), period=1
        )
        trace = Simulation(source, warehouse, workload).run(BestCaseSchedule())
        assert check_trace(view, trace).strongly_consistent


class TestMixedSelfJoinAndOtherRelation:
    def test_three_way_with_double_occurrence(self):
        """V over dept |x| emp AS e1 |x| emp AS e2 mixes single- and
        multi-occurrence substitution in one view."""
        dept = RelationSchema("dept", ("dept", "city"))
        e1, e2 = EMP.aliased("e1"), EMP.aliased("e2")
        condition = (
            Comparison(Attr("e1.dept"), "=", Attr("dept.dept"))
            & Comparison(Attr("e2.dept"), "=", Attr("dept.dept"))
            & Comparison(Attr("e1.name"), "<", Attr("e2.name"))
        )
        view = View("pairs_with_city", [dept, e1, e2], ["e1.name", "e2.name", "city"], condition)
        initial = {"emp": INITIAL["emp"], "dept": [(10, 0), (20, 1)]}
        for seed in range(6):
            workload = random_workload(
                [EMP, dept], 8, seed=seed, initial=initial, domain=4
            )
            source = MemorySource([EMP, dept], initial)
            warehouse = create_algorithm(
                "eca", view, evaluate_view(view, source.snapshot())
            )
            trace = Simulation(source, warehouse, workload).run(RandomSchedule(seed))
            report = check_trace(view, trace)
            assert report.strongly_consistent, (seed, report.detail)
