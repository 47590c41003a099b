"""Edge-case and failure-injection tests across modules."""

import pytest

from repro.errors import ProtocolError, SimulationError
from repro.relational.bag import SignedBag
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    TrueCondition,
    equality_pairs,
    flatten_conjuncts,
)
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import insert, modify


class TestConditionHelpers:
    def test_flatten_nested_ands(self):
        a = Comparison(Attr("A"), "=", Const(1))
        b = Comparison(Attr("B"), "=", Const(2))
        c = Comparison(Attr("C"), "=", Const(3))
        assert flatten_conjuncts(And(And(a, b), c)) == [a, b, c]

    def test_flatten_keeps_or_whole(self):
        a = Comparison(Attr("A"), "=", Const(1))
        disjunction = Or(a, a)
        assert flatten_conjuncts(And(disjunction, a)) == [disjunction, a]

    def test_flatten_true_is_empty(self):
        assert flatten_conjuncts(TrueCondition()) == []

    def test_equality_pairs_extraction(self):
        cond = And(
            Comparison(Attr("r1.X"), "=", Attr("r2.X")),
            Comparison(Attr("W"), ">", Attr("Z")),
            Comparison(Attr("W"), "=", Const(5)),
        )
        assert equality_pairs(cond) == [("r1.X", "r2.X")]

    def test_equality_under_not_ignored(self):
        cond = Not(Comparison(Attr("A"), "=", Attr("B")))
        assert equality_pairs(cond) == []


class TestApplyDeltaPolicies:
    def test_unknown_policy_rejected(self, view_w):
        from repro.warehouse.state import MaterializedView

        mv = MaterializedView(view_w)
        with pytest.raises(ValueError):
            mv.apply_delta(SignedBag(), on_negative="explode")

    def test_allow_policy_stores_negative(self, view_w):
        from repro.warehouse.state import MaterializedView

        mv = MaterializedView(view_w)
        mv.apply_delta(SignedBag({(1,): -2}), on_negative="allow")
        assert mv.multiplicity((1,)) == -2
        # rows() cannot expand a negative view — that is the point of the
        # 'invalid intermediate state'.
        with pytest.raises(ValueError):
            mv.rows()


class TestDriverErrorPaths:
    def test_warehouse_action_with_empty_inbox(self, view_w, two_rel_schemas):
        from repro.core.eca import ECA
        from repro.simulation.driver import Simulation

        sim = Simulation(MemorySource(two_rel_schemas), ECA(view_w), [])
        with pytest.raises(ProtocolError):
            sim.step("warehouse")

    def test_answer_action_with_no_pending_query(self, view_w, two_rel_schemas):
        from repro.core.eca import ECA
        from repro.simulation.driver import Simulation

        sim = Simulation(MemorySource(two_rel_schemas), ECA(view_w), [])
        with pytest.raises(ProtocolError):
            sim.step("answer")

    def test_refresh_marker_repr(self):
        from repro.simulation.driver import REFRESH

        assert repr(REFRESH) == "REFRESH"

    def test_refresh_does_not_touch_source(self, view_w, two_rel_schemas):
        from repro.core.batch import DeferredECA
        from repro.simulation.driver import REFRESH, Simulation
        from repro.simulation.schedules import BestCaseSchedule

        source = MemorySource(two_rel_schemas, {"r1": [(1, 2)]})
        sim = Simulation(source, DeferredECA(view_w), [REFRESH])
        trace = sim.run(BestCaseSchedule())
        # Only the initial source state: REFRESH never reaches the source.
        assert len(trace.source_states) == 1


class TestMultiSourceErrorPaths:
    def test_duplicate_relation_ownership_rejected(self):
        from repro.kernel import SyncKernel
        from repro.multisource import FragmentingIncremental

        r1 = RelationSchema("r1", ("W", "X"))
        view = View("V", [r1], ["W"])
        a = MemorySource([r1])
        b = MemorySource([RelationSchema("r1", ("W", "X"))])
        algo = FragmentingIncremental(view, {"r1": "A"})
        with pytest.raises(SimulationError):
            SyncKernel({"A": a, "B": b}, algo, [])

    def test_update_to_unowned_relation_rejected(self):
        from repro.kernel import SyncKernel
        from repro.multisource import FragmentingIncremental

        r1 = RelationSchema("r1", ("W", "X"))
        view = View("V", [r1], ["W"])
        a = MemorySource([r1])
        algo = FragmentingIncremental(view, {"r1": "A"})
        sim = SyncKernel({"A": a}, algo, [insert("zzz", (1,))])
        with pytest.raises(SimulationError):
            sim.step("update")

    def test_sc_rejects_answers(self):
        from repro.messaging.messages import QueryAnswer
        from repro.multisource import MultiSourceStoredCopies

        r1 = RelationSchema("r1", ("W", "X"))
        view = View("V", [r1], ["W"])
        algo = MultiSourceStoredCopies(view, {"r1": "A"})
        with pytest.raises(ProtocolError):
            algo.on_answer("A", QueryAnswer(1, SignedBag()))


class TestModificationUpdates:
    def test_modify_end_to_end_under_eca(self, view_wy, two_rel_schemas):
        """Section 4.1: a modification is a deletion followed by an
        insertion — run one through the full ECA stack."""
        from repro.consistency import check_trace
        from repro.core.eca import ECA
        from repro.relational.engine import evaluate_view
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import WorstCaseSchedule

        source = MemorySource(
            two_rel_schemas, {"r1": [(1, 2)], "r2": [(2, 3)]}
        )
        warehouse = ECA(view_wy, evaluate_view(view_wy, source.snapshot()))
        workload = modify("r2", (2, 3), (2, 7))
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        assert sorted(warehouse.mv.rows()) == [(1, 7)]
        assert check_trace(view_wy, trace).strongly_consistent

    def test_modify_under_eca_key(self, keyed_view, keyed_schemas):
        from repro.consistency import check_trace
        from repro.core.eca_key import ECAKey
        from repro.relational.engine import evaluate_view
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import WorstCaseSchedule

        source = MemorySource(keyed_schemas, {"r1": [(1, 2)], "r2": [(2, 3)]})
        warehouse = ECAKey(keyed_view, evaluate_view(keyed_view, source.snapshot()))
        workload = modify("r2", (2, 3), (2, 7))
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        assert sorted(warehouse.mv.rows()) == [(1, 7)]
        assert check_trace(keyed_view, trace).strongly_consistent


class TestMeasuredHarnessValidation:
    def test_unknown_algorithm_rejected(self):
        from repro.costmodel.parameters import PaperParameters
        from repro.experiments.measured import run_example6_once
        from repro.simulation.schedules import BestCaseSchedule

        with pytest.raises(ValueError):
            run_example6_once(
                PaperParameters(cardinality=8), 1, "magic", BestCaseSchedule()
            )

    def test_unknown_io_scenario_rejected(self):
        from repro.costmodel.parameters import PaperParameters
        from repro.experiments.measured import run_example6_once
        from repro.simulation.schedules import BestCaseSchedule

        with pytest.raises(ValueError):
            run_example6_once(
                PaperParameters(cardinality=8), 1, "eca", BestCaseSchedule(),
                io_scenario=7,
            )

    def test_unknown_source_kind_rejected(self):
        from repro.costmodel.parameters import PaperParameters
        from repro.experiments.measured import run_example6_once
        from repro.simulation.schedules import BestCaseSchedule

        with pytest.raises(ValueError):
            run_example6_once(
                PaperParameters(cardinality=8), 1, "eca", BestCaseSchedule(),
                source_kind="oracle",
            )
