"""Warehouse algorithms for multi-source views — one broken, one sound.

:class:`FragmentingIncremental` is the single-source incremental
algorithm (Algorithm 5.1) transplanted to multiple sources with query
fragmentation.  Each incremental query's fragments ship to their owning
sources; when the last fragment answer arrives the term is reassembled
and applied.  The transplant is *deliberately* faithful to the
single-source logic — and the tests show it is anomalous: fragments of
one query are evaluated against different global states, and no FIFO
deduction exists across sources to even detect it.  This is the
"additional issues" Section 7 warns about.

:class:`MultiSourceStoredCopies` is the SC strategy: the warehouse keeps
copies of every base relation and never queries the sources, so the
missing cross-source ordering is irrelevant — it stays complete.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.protocol import WarehouseAlgorithm, query_owner
from repro.core.stored_copies import StoredCopies
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.multisource.fragment import FragmentPlan, fragment_query
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View


class _PendingTerm:
    """One term awaiting fragment answers from one or more sources."""

    def __init__(self, plan: FragmentPlan) -> None:
        self.plan = plan
        self.answers: Dict[str, SignedBag] = {}

    def complete(self) -> bool:
        return set(self.answers) == set(self.plan.fragments)


class FragmentingIncremental(WarehouseAlgorithm):
    """Naive incremental maintenance over multiple sources (anomalous)."""

    name = "fragmenting-incremental"
    multi_source = True

    def __init__(
        self,
        view: View,
        owners: Optional[Dict[str, str]] = None,
        initial: Optional[SignedBag] = None,
    ) -> None:
        super().__init__(view, initial)
        if owners:
            self.owners = dict(owners)
        #: query id -> pending term state (shared across a plan's fragments).
        self._pending: Dict[int, _PendingTerm] = {}
        #: Count of queries whose fragments spanned several sources.
        self.spanning_queries = 0

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        query = self.view.substitute(update.relation, update.signed_tuple())
        requests: List[QueryRequest] = []
        for plan in fragment_query(query, self.owners):
            if plan.is_local():
                self.mv.apply_delta(plan.reassemble({}), on_negative="clamp")
                continue
            if plan.spans_sources():
                self.spanning_queries += 1
            pending = _PendingTerm(plan)
            for fragment in plan.fragments.values():
                request = self._make_request(Query([fragment]))
                self._pending[request.query_id] = pending
                requests.append(request)
        return requests

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        pending = self._pending.pop(answer.query_id)
        source = query_owner(self.uqs.pop(answer.query_id), self.owners)
        pending.answers[source] = answer.answer
        if pending.complete():
            # Naive: apply as soon as reassembled (clamping, like the
            # single-source baseline, so anomalies are observable rather
            # than fatal).
            self.mv.apply_delta(
                pending.plan.reassemble(pending.answers), on_negative="clamp"
            )
        return []

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["pending_terms"] = len({id(p) for p in self._pending.values()})
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        # A _PendingTerm may be shared by several query ids (one per
        # fragment); persist each unique record once, in first-seen order,
        # and let routes point at records by index.
        records: List[_PendingTerm] = []
        index_of: Dict[int, int] = {}
        for query_id in sorted(self._pending):
            record = self._pending[query_id]
            if id(record) not in index_of:
                index_of[id(record)] = len(records)
                records.append(record)
        return {
            "next_query_id": self._next_query_id,
            "terms": [
                {"term": Query([record.plan.term]), "answers": dict(record.answers)}
                for record in records
            ],
            "routes": {
                query_id: (index_of[id(self._pending[query_id])],
                           query_owner(self.uqs[query_id], self.owners))
                for query_id in sorted(self._pending)
            },
            "spanning_queries": self.spanning_queries,
        }

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        self._next_query_id = state["next_query_id"]
        self.spanning_queries = state["spanning_queries"]
        records: List[_PendingTerm] = []
        for entry in state["terms"]:
            record = _PendingTerm(FragmentPlan(entry["term"].terms[0], self.owners))
            record.answers = dict(entry["answers"])
            records.append(record)
        self._pending = {}
        self.uqs = {}
        for query_id in sorted(state["routes"]):
            record_index, destination = state["routes"][query_id]
            record = records[record_index]
            self._pending[query_id] = record
            self.uqs[query_id] = Query([record.plan.fragments[destination]])


class MultiSourceStoredCopies(StoredCopies):
    """SC over multiple sources: correct because it never asks anything.

    :class:`~repro.core.stored_copies.StoredCopies` ignores where a
    notification came from, so this adds only the ``owners`` map every
    multi-source registry entry is rebuilt with.
    """

    name = "multi-stored-copies"
    multi_source = True

    def __init__(
        self,
        view: View,
        owners: Optional[Dict[str, str]] = None,
        initial: Optional[SignedBag] = None,
        initial_copies: Optional[Dict[str, SignedBag]] = None,
    ) -> None:
        super().__init__(view, initial, initial_copies)
        if owners:
            self.owners = dict(owners)

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["copied_tuples"] = sum(len(bag) for bag in self.copies.values())
        return out
