"""Unit tests for the measured-cost recorder."""

import pytest

from repro.costmodel.counters import CostRecorder
from repro.costmodel.io_scenarios import Scenario2Estimator
from repro.costmodel.parameters import PaperParameters
from repro.messaging.messages import QueryAnswer, QueryRequest
from repro.relational.bag import SignedBag
from repro.source.memory import MemorySource
from repro.workloads.example6 import example6_schemas, example6_view


@pytest.fixture
def recorder():
    return CostRecorder(PaperParameters())


class TestMessageAccounting:
    def test_requests_and_answers_counted(self, recorder):
        view = example6_view()
        recorder.record_request(QueryRequest(1, view.as_query()))
        recorder.record_answer(QueryAnswer(1, SignedBag()))
        assert recorder.query_messages == 1
        assert recorder.answer_messages == 1
        assert recorder.messages == 2

    def test_bytes_are_s_per_answer_tuple(self, recorder):
        recorder.record_answer(QueryAnswer(1, SignedBag({(1, 2): 3})))
        assert recorder.answer_tuples == 3
        assert recorder.bytes == 3 * 4  # S = 4

    def test_signed_tuples_count_by_absolute_multiplicity(self, recorder):
        recorder.record_answer(QueryAnswer(1, SignedBag({(1,): -2, (2,): 1})))
        assert recorder.answer_tuples == 3


class TestIOAccounting:
    def test_no_estimator_skips_io(self, recorder):
        view = example6_view()
        source = MemorySource(example6_schemas())
        recorder.record_evaluation(view.as_query(), source)
        assert recorder.ios == 0
        assert recorder.terms_evaluated == 1

    def test_estimator_wired_through(self):
        params = PaperParameters()
        recorder = CostRecorder(params, Scenario2Estimator(params))
        source = MemorySource(example6_schemas())
        for schema in example6_schemas():
            source.load(schema.name, [(i, i) for i in range(100)])
        recorder.record_evaluation(example6_view().as_query(), source)
        assert recorder.ios == params.I**3

    def test_summary_keys(self, recorder):
        summary = recorder.summary()
        assert set(summary) == {
            "messages",
            "bytes",
            "ios",
            "answer_tuples",
            "terms_evaluated",
        }

    def test_repr(self, recorder):
        assert "M=0" in repr(recorder)


class TestEndToEndCounts:
    def test_eca_message_count_is_2k(self, view_w, two_rel_schemas):
        """Section 6.1: ECA sends exactly 2k messages for k updates."""
        from repro.core.eca import ECA
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import WorstCaseSchedule
        from repro.source.updates import insert

        source = MemorySource(two_rel_schemas)
        recorder = CostRecorder()
        k = 6
        workload = [insert("r1", (i, i)) for i in range(k)]
        Simulation(source, ECA(view_w), workload, recorder).run(WorstCaseSchedule())
        assert recorder.messages == 2 * k

    def test_rv_message_count_is_2_ceil_k_over_s(self, view_w, two_rel_schemas):
        from repro.core.recompute import RecomputeView
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import BestCaseSchedule
        from repro.source.updates import insert

        source = MemorySource(two_rel_schemas)
        recorder = CostRecorder()
        k, s = 6, 3
        workload = [insert("r1", (i, i)) for i in range(k)]
        Simulation(
            source, RecomputeView(view_w, period=s), workload, recorder
        ).run(BestCaseSchedule())
        assert recorder.messages == 2 * (k // s)

    def test_the_message_laws_hold_on_the_wire_at_every_k_and_period(
        self, view_w, two_rel_schemas
    ):
        """Section 6.1's two laws on the channel counters: ECA sends 2k
        under the worst-case interleaving, RV(s) sends 2*ceil(k/s)."""
        from repro.core.eca import ECA
        from repro.core.recompute import RecomputeView
        from repro.costmodel.analytic import messages_eca, messages_rv
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import BestCaseSchedule, WorstCaseSchedule
        from repro.source.updates import insert

        def messages(warehouse, k, schedule):
            recorder = CostRecorder()
            workload = [insert("r1", (i, i % 3)) for i in range(k)]
            source = MemorySource(two_rel_schemas)
            Simulation(source, warehouse, workload, recorder).run(schedule)
            return recorder.messages

        for k in (1, 4, 8, 16):
            assert messages(ECA(view_w), k, WorstCaseSchedule()) == messages_eca(k)
        for s in (1, 2, 4, 8):
            rv = RecomputeView(view_w, period=s)
            assert messages(rv, 8, BestCaseSchedule()) == messages_rv(8, s)
