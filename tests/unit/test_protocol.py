"""Unit tests for the WarehouseAlgorithm base protocol."""

import pytest

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import ProtocolError
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.tuples import SignedTuple
from repro.source.updates import insert


class Probe(WarehouseAlgorithm):
    """Minimal concrete algorithm for protocol-level testing."""

    name = "probe"

    def handle_update(self, notification):
        return [self._make_request(self.view.as_query())]

    def handle_answer(self, answer):
        self._retire(answer)
        return []


class TestProtocol:
    def test_query_ids_are_sequential(self, view_w):
        probe = Probe(view_w)
        first = probe.handle_update(UpdateNotification(insert("r1", (1, 2)), 1))[0]
        second = probe.handle_update(UpdateNotification(insert("r1", (2, 2)), 2))[0]
        assert (first.query_id, second.query_id) == (1, 2)

    def test_uqs_tracks_pending(self, view_w):
        probe = Probe(view_w)
        request = probe.handle_update(UpdateNotification(insert("r1", (1, 2)), 1))[0]
        assert not probe.is_quiescent()
        assert probe.uqs_queries() == [request.query]
        probe.handle_answer(QueryAnswer(request.query_id, SignedBag()))
        assert probe.is_quiescent()

    def test_uqs_queries_in_send_order(self, view_w):
        probe = Probe(view_w)
        probe.handle_update(UpdateNotification(insert("r1", (1, 2)), 1))
        probe.handle_update(UpdateNotification(insert("r1", (2, 2)), 2))
        assert len(probe.uqs_queries()) == 2

    def test_restore_from_an_out_of_order_mapping_yields_send_order(self, view_w):
        """``uqs`` is kept in send order, so reading it never sorts; a
        restore is the one place an unordered mapping can come in."""
        queries = {
            query_id: view_w.substitute("r1", SignedTuple((query_id, 2)))
            for query_id in (1, 2, 3, 5)
        }
        probe = Probe(view_w)
        probe.restore_pending_state(
            {"next_query_id": 6, "uqs": {q: queries[q] for q in (3, 1, 5, 2)}}
        )
        assert probe.uqs_queries() == [queries[q] for q in (1, 2, 3, 5)]
        assert probe.pending_query_ids() == [1, 2, 3, 5]
        assert [
            (request.query_id, request.query)
            for _, request in probe.pending_requests()
        ] == [(q, queries[q]) for q in (1, 2, 3, 5)]
        # Retiring from the middle and sending again keeps the order.
        probe.handle_answer(QueryAnswer(2, SignedBag()))
        sent = probe.handle_update(UpdateNotification(insert("r1", (9, 2)), 1))[0]
        assert sent.query_id == 6
        assert probe.pending_query_ids() == [1, 3, 5, 6]
        assert probe.uqs_queries() == [queries[1], queries[3], queries[5], sent.query]

    def test_answer_for_unknown_query_raises(self, view_w):
        probe = Probe(view_w)
        with pytest.raises(ProtocolError):
            probe.handle_answer(QueryAnswer(99, SignedBag()))

    def test_relevant_checks_view_relations(self, view_w):
        probe = Probe(view_w)
        assert probe.relevant(UpdateNotification(insert("r1", (1, 2)), 1))
        assert not probe.relevant(UpdateNotification(insert("other", (1,)), 1))

    def test_view_state_reflects_initial(self, view_w):
        probe = Probe(view_w, SignedBag.from_rows([(1,)]))
        assert probe.view_state() == SignedBag.from_rows([(1,)])

    def test_repr_names_view(self, view_w):
        assert "V" in repr(Probe(view_w))
