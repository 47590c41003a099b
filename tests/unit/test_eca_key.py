"""Unit tests for the ECA-Key algorithm."""

import pytest

from repro.core.eca_key import ECAKey
from repro.errors import ProtocolError, SchemaError
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.views import View
from repro.source.updates import delete, insert


def notify(update, serial=1):
    return UpdateNotification(update, serial)


class TestApplicability:
    def test_requires_all_keys_projected(self, keyed_schemas):
        view = View.natural_join("V", keyed_schemas, ["W"])  # misses r2's key
        with pytest.raises(SchemaError):
            ECAKey(view)

    def test_requires_declared_keys(self, view_wy):
        with pytest.raises(SchemaError):
            ECAKey(view_wy)

    def test_accepts_key_complete_view(self, keyed_view):
        ECAKey(keyed_view)  # does not raise


class TestDeletes:
    def test_delete_handled_locally_no_query(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag.from_rows([(1, 3)]))
        requests = algo.handle_update(notify(delete("r1", (1, 2))))
        assert requests == []
        # UQS was empty, so the view is installed immediately.
        assert algo.view_state().is_empty()

    def test_delete_by_second_relation_key(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag.from_rows([(1, 3), (2, 4)]))
        algo.handle_update(notify(delete("r2", (9, 3))))
        assert algo.view_state() == SignedBag.from_rows([(2, 4)])

    def test_delete_while_queries_pending_defers_install(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag.from_rows([(1, 3)]))
        algo.handle_update(notify(insert("r2", (2, 4)), 1))
        algo.handle_update(notify(delete("r1", (1, 2)), 2))
        # COLLECT updated, but MV not replaced while UQS is non-empty.
        assert algo.collect.is_empty()
        assert algo.view_state() == SignedBag.from_rows([(1, 3)])


class TestInserts:
    def test_insert_sends_uncompensated_query(self, keyed_view):
        algo = ECAKey(keyed_view)
        algo.handle_update(notify(insert("r2", (2, 4)), 1))
        second = algo.handle_update(notify(insert("r1", (3, 2)), 2))
        # No compensating terms even with a pending query.
        assert second[0].query.term_count() == 1

    def test_duplicate_answer_tuples_dropped(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag.from_rows([(1, 3)]))
        q1 = algo.handle_update(notify(insert("r2", (2, 4)), 1))[0]
        q2 = algo.handle_update(notify(insert("r1", (3, 2)), 2))[0]
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag.from_rows([(3, 4)])))
        # A2 repeats [3,4]; the duplicate must be ignored (paper step 5).
        algo.handle_answer(
            QueryAnswer(q2.query_id, SignedBag.from_rows([(3, 3), (3, 4)]))
        )
        assert sorted(algo.view_state().expand_rows()) == [(1, 3), (3, 3), (3, 4)]

    def test_negative_answer_tuple_rejected(self, keyed_view):
        algo = ECAKey(keyed_view)
        q1 = algo.handle_update(notify(insert("r2", (2, 4))))[0]
        with pytest.raises(ProtocolError):
            algo.handle_answer(QueryAnswer(q1.query_id, SignedBag({(1, 4): -1})))


class TestDeleteInsertRace:
    def test_late_answer_does_not_resurrect_deleted_key(self, keyed_view):
        """The Appendix C gap: delete of the very tuple whose insert query
        is in flight.  The answer still carries the key (it is bound into
        the query), and must be filtered out."""
        algo = ECAKey(keyed_view)
        q1 = algo.handle_update(notify(insert("r2", (2, 4)), 1))[0]
        algo.handle_update(notify(delete("r2", (2, 4)), 2))
        # Source evaluated Q1 after the delete; r1 = ([1,2]) say:
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag.from_rows([(1, 4)])))
        assert algo.view_state().is_empty()

    def test_filter_does_not_outlive_its_query(self, keyed_view):
        algo = ECAKey(keyed_view)
        q1 = algo.handle_update(notify(insert("r2", (2, 4)), 1))[0]
        algo.handle_update(notify(delete("r2", (2, 4)), 2))
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag.from_rows([(1, 4)])))
        # Re-insert the same key: its own query's answer must NOT be
        # filtered by the stale delete.
        q3 = algo.handle_update(notify(insert("r2", (2, 4)), 3))[0]
        algo.handle_answer(QueryAnswer(q3.query_id, SignedBag.from_rows([(1, 4)])))
        assert algo.view_state() == SignedBag.from_rows([(1, 4)])

    def test_other_relation_delete_filters_pending_answer(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag())
        q1 = algo.handle_update(notify(insert("r2", (2, 4)), 1))[0]
        algo.handle_update(notify(delete("r1", (1, 2)), 2))
        # Answer evaluated before the r1 delete would normally have
        # arrived first (FIFO); if it does arrive after, dropping the
        # deleted key is exactly what key-delete would have done.
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag.from_rows([(1, 4)])))
        assert algo.view_state().is_empty()


class TestInstallSemantics:
    def test_collect_is_working_copy_not_reset(self, keyed_view):
        algo = ECAKey(keyed_view, SignedBag.from_rows([(1, 3)]))
        q1 = algo.handle_update(notify(insert("r1", (5, 2))))[0]
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag.from_rows([(5, 3)])))
        assert algo.collect == SignedBag.from_rows([(1, 3), (5, 3)])
        assert algo.view_state() == algo.collect

    def test_quiescence(self, keyed_view):
        algo = ECAKey(keyed_view)
        assert algo.is_quiescent()
        q1 = algo.handle_update(notify(insert("r1", (5, 2))))[0]
        assert not algo.is_quiescent()
        algo.handle_answer(QueryAnswer(q1.query_id, SignedBag()))
        assert algo.is_quiescent()

    def test_irrelevant_update_ignored(self, keyed_view):
        algo = ECAKey(keyed_view)
        assert algo.handle_update(notify(insert("zzz", (1,)))) == []
