"""Unit tests for the basic (anomalous) algorithm and ECA.

These drive the algorithms directly (no simulation driver) so the tests
can inspect UQS contents, COLLECT buffering, compensation structure, and
the local evaluation of fully-bound terms.
"""

import pytest

from repro.core.basic import BasicAlgorithm
from repro.core.eca import ECA
from repro.messaging.messages import QueryAnswer, UpdateBatch, UpdateNotification
from repro.relational.bag import SignedBag
from repro.source.updates import delete, insert


def notify(update, serial=1):
    return UpdateNotification(update, serial)


class TestBasicAlgorithm:
    def test_update_emits_incremental_query(self, view_w):
        algo = BasicAlgorithm(view_w)
        requests = algo.handle_update(notify(insert("r2", (2, 3))))
        assert len(requests) == 1
        term = requests[0].query.terms[0]
        assert [op.name for op in term.operands if not op.is_bound] == ["r1"]

    def test_irrelevant_update_ignored(self, view_w):
        algo = BasicAlgorithm(view_w)
        assert algo.handle_update(notify(insert("zzz", (1,)))) == []

    def test_answer_applied_immediately(self, view_w):
        algo = BasicAlgorithm(view_w)
        request = algo.handle_update(notify(insert("r2", (2, 3))))[0]
        algo.handle_answer(QueryAnswer(request.query_id, SignedBag.from_rows([(1,)])))
        assert algo.view_state() == SignedBag.from_rows([(1,)])

    def test_negative_overshoot_clamped_not_raised(self, view_w):
        # The anomalous baseline may double-delete; it must not crash.
        algo = BasicAlgorithm(view_w, SignedBag.from_rows([(1,)]))
        request = algo.handle_update(notify(delete("r1", (1, 2))))[0]
        algo.handle_answer(
            QueryAnswer(request.query_id, SignedBag({(1,): -2}))
        )
        assert algo.view_state().is_empty()


class TestECACompensation:
    def test_no_compensation_when_uqs_empty(self, view_w):
        algo = ECA(view_w)
        request = algo.handle_update(notify(insert("r2", (2, 3))))[0]
        assert request.query.term_count() == 1

    def test_compensation_added_per_pending_query(self, view_w3):
        algo = ECA(view_w3)
        algo.handle_update(notify(insert("r1", (4, 2)), 1))
        second = algo.handle_update(notify(insert("r3", (5, 3)), 2))[0]
        # Q2 = V<U2> - Q1<U2>: two source terms (paper, Example 4 step 2).
        assert second.query.term_count() == 2
        assert [t.coefficient for t in second.query.terms] == [1, -1]

    def test_example4_third_query_shape(self, view_w3):
        algo = ECA(view_w3)
        algo.handle_update(notify(insert("r1", (4, 2)), 1))
        algo.handle_update(notify(insert("r3", (5, 3)), 2))
        third = algo.handle_update(notify(insert("r2", (2, 5)), 3))[0]
        # V<U3> - Q1<U3> - Q2<U3>; the doubly-bound part of Q2<U3> is
        # fully bound and evaluated locally, leaving 3 source terms.
        assert third.query.term_count() == 3
        # The local fully-bound term contributed +[4] to COLLECT.
        assert algo.collect == SignedBag.from_rows([(4,)])

    def test_collect_buffers_until_uqs_drains(self, view_w):
        # Example 2 replayed by hand: Q1's answer sees U2's tuple; the
        # fully-bound compensation term -pi([4,2]|x|[2,3]) was evaluated
        # locally at W_up2 time, and Q2's remote part answers [4].
        algo = ECA(view_w)
        first = algo.handle_update(notify(insert("r2", (2, 3)), 1))[0]
        second = algo.handle_update(notify(insert("r1", (4, 2)), 2))[0]
        assert algo.collect == SignedBag({(4,): -1})  # local compensation
        algo.handle_answer(QueryAnswer(first.query_id, SignedBag.from_rows([(1,), (4,)])))
        assert algo.view_state().is_empty()  # still buffered
        algo.handle_answer(QueryAnswer(second.query_id, SignedBag.from_rows([(4,)])))
        assert algo.view_state() == SignedBag.from_rows([(1,), (4,)])

    def test_collect_reset_after_install(self, view_w):
        algo = ECA(view_w)
        request = algo.handle_update(notify(insert("r2", (2, 3))))[0]
        algo.handle_answer(QueryAnswer(request.query_id, SignedBag.from_rows([(1,)])))
        assert algo.collect.is_empty()
        assert algo.is_quiescent()

    def test_unbuffered_variant_applies_immediately(self, view_w):
        # The Section 5.2 strawman: answers (and local compensations) hit
        # the view as they arrive, passing through invalid intermediate
        # states — here a negative replication count — before converging.
        algo = ECA(view_w, buffer_answers=False)
        first = algo.handle_update(notify(insert("r2", (2, 3)), 1))[0]
        second = algo.handle_update(notify(insert("r1", (4, 2)), 2))[0]
        assert algo.view_state() == SignedBag({(4,): -1})  # local compensation
        algo.handle_answer(
            QueryAnswer(first.query_id, SignedBag.from_rows([(1,), (4,)]))
        )
        assert algo.view_state() == SignedBag.from_rows([(1,)])
        algo.handle_answer(QueryAnswer(second.query_id, SignedBag.from_rows([(4,)])))
        assert algo.view_state() == SignedBag.from_rows([(1,), (4,)])

    def test_buffering_costs_nothing_on_the_wire(self):
        """COLLECT buys consistency for free in M and B: on Example 6
        (k=9, worst case) both variants ship the same and converge to
        the same view."""
        from repro.costmodel.counters import CostRecorder
        from repro.costmodel.parameters import PaperParameters
        from repro.relational.engine import evaluate_view
        from repro.simulation.driver import Simulation
        from repro.simulation.schedules import WorstCaseSchedule
        from repro.source.memory import MemorySource
        from repro.workloads.example6 import build_example6

        params = PaperParameters()
        runs = []
        for buffered in (True, False):
            setup = build_example6(params, k=9, seed=2)
            source = MemorySource(setup.schemas, setup.initial)
            warehouse = ECA(
                setup.view,
                evaluate_view(setup.view, source.snapshot()),
                buffer_answers=buffered,
            )
            recorder = CostRecorder(params)
            Simulation(source, warehouse, setup.workload, recorder).run(
                WorstCaseSchedule()
            )
            runs.append((recorder.summary(), warehouse.view_state()))
        assert runs[0] == runs[1]

    def test_fully_bound_terms_stay_at_the_warehouse(self):
        """Appendix D: a term with every operand bound "does not have to
        be sent to the source" — fewer terms ship than the compensation
        produces."""
        from repro.costmodel.parameters import PaperParameters
        from repro.workloads.example6 import build_example6

        view = build_example6(PaperParameters(), k=0, seed=7).view
        algo = ECA(view)
        updates = [
            insert("r1", (1, 2)),
            insert("r2", (2, 3)),
            insert("r3", (3, 4)),
            insert("r1", (5, 6)),
            insert("r2", (6, 7)),
            insert("r3", (7, 8)),
        ]
        produced = shipped = 0
        for serial, update in enumerate(updates, start=1):
            signed = update.signed_tuple()
            full = view.substitute(update.relation, signed)
            for pending in algo.uqs_queries():
                full = full - pending.substitute(update.relation, signed)
            produced += full.term_count()
            for request in algo.handle_update(notify(update, serial)):
                shipped += request.query.term_count()
        assert shipped < produced

    def test_irrelevant_update_no_compensation_state(self, view_w):
        algo = ECA(view_w)
        assert algo.handle_update(notify(insert("zzz", (1,)))) == []
        assert algo.is_quiescent()

    def test_strictness_of_final_install(self, view_w):
        # ECA installs strictly: a bogus answer that drives the view
        # negative must raise, not clamp.
        from repro.errors import ViewStateError

        algo = ECA(view_w)
        request = algo.handle_update(notify(delete("r1", (1, 2))))[0]
        with pytest.raises(ViewStateError):
            algo.handle_answer(
                QueryAnswer(request.query_id, SignedBag({(9,): -1}))
            )


class TestECABatchCompensation:
    def test_a_batch_ships_no_more_terms_than_its_members_one_by_one(self, view_w3):
        """Regression: ``D(Q, batch) - Q`` written out keeps ``+Q`` and
        ``-Q`` (queries never cancel terms), so every in-flight query was
        shipped twice per batch and the next batch compensated the copies
        too — 3, 12, 45, 153 terms on this input instead of 3, 6, 9, 11."""
        batches = [
            [insert("r1", (4, 2)), insert("r3", (5, 3))],
            [insert("r2", (2, 5)), insert("r1", (6, 2))],
            [insert("r3", (5, 7)), insert("r2", (2, 8))],
            [insert("r1", (9, 2)), insert("r3", (8, 1))],
        ]
        batched, one_by_one = ECA(view_w3), ECA(view_w3)
        serial = 0
        for updates in batches:
            members = []
            for update in updates:
                serial += 1
                members.append(notify(update, serial))
            (request,) = batched.handle_update_batch(UpdateBatch(tuple(members)))
            signs = {}
            for term in request.query.terms:
                signs.setdefault(term.operands, set()).add(term.coefficient)
            assert all(len(seen) == 1 for seen in signs.values()), (
                f"{request!r} carries a +T/-T pair over the same operands"
            )
            assert request.query.term_count() <= sum(
                sent.query.term_count()
                for member in members
                for sent in one_by_one.handle_update(member)
            )
