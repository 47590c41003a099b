"""Algorithm 5.2 — the Eager Compensating Algorithm (ECA).

On receiving update ``U_i`` the warehouse sends

    Q_i = V<U_i> - sum over Q_j in UQS of Q_j<U_i>

The compensating terms offset the effect ``U_i`` will have on the pending
queries: FIFO delivery guarantees that if the warehouse has seen ``U_i``
before ``Q_j``'s answer, the source executed ``U_i`` before evaluating
``Q_j``, so ``Q_j`` will "see" ``U_i``'s tuple.

Answers accumulate in ``COLLECT`` and are installed into the view only when
the UQS drains — installing earlier would expose invalid intermediate
states (convergent but not consistent; see Section 5.2).

Following Appendix D, terms of ``Q_i`` in which *every* relation is bound
to a concrete tuple are not shipped to the source: they reference no base
data, so the warehouse evaluates them locally and feeds the result straight
into ``COLLECT``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.compensation import (
    ProbeIndex,
    batch_delta_query,
    split,
    staged_compensation,
)
from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_query
from repro.relational.expressions import BoundOperand, Query
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.updates import Update


class ECA(WarehouseAlgorithm):
    """The Eager Compensating Algorithm — strongly consistent.

    The compensated query of an event is built and split
    (:func:`~repro.core.compensation.split`) in one place,
    :meth:`_dispatch`.  An update finds the pending terms it compensates
    in :attr:`probe_index`, one :class:`~repro.core.compensation.ProbeIndex`
    over the whole UQS: the first update after a query is issued files it
    once, for every relation, and its answer retires it.  A recovered
    ECA starts a new index, which files the recovered UQS the same way.
    In a :class:`~repro.warehouse.catalog.WarehouseCatalog`
    with sharing on, equally defined views in equal states are one ECA,
    so a class builds once per event however many views it stands for.

    Parameters
    ----------
    view, initial:
        As for every :class:`WarehouseAlgorithm`.
    buffer_answers:
        When True (the paper's algorithm, default) answers collect until
        the UQS is empty.  When False, each answer is applied to the view
        immediately — the variant Section 5.2 warns about, kept here so the
        consistency checker can demonstrate it is convergent but *not*
        consistent.
    """

    name = "eca"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        buffer_answers: bool = True,
    ) -> None:
        super().__init__(view, initial)
        self.collect = SignedBag()
        self.buffer_answers = buffer_answers
        #: The UQS indexed for the builder's probe (never persisted).
        self.probe_index = ProbeIndex(self.uqs)

    # ------------------------------------------------------------------ #
    # W_up
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        return self._dispatch(
            _compensate_update(self.view, notification.update, self.probe_index)
        )

    def handle_update_batch(self, batch: UpdateBatch) -> List[QueryRequest]:
        """The k-update generalization: one ``Q<U1,...,Uk>`` per batch.

        The batch's own delta is ``sum_j D(V<U_j>, rest-of-batch)``
        (Lemma B.2 backdating, so each member's incremental query reads as
        of its own source state), and every in-flight query gets one
        compensation ``D(Q_j, batch) - Q_j`` covering all k members at
        once — k round trips become one.  The compensation is built in
        its staged form, which never writes ``Q_j`` down: queries do not
        cancel terms, so a literal ``+Q_j - Q_j`` would ship twice and be
        compensated again by the next batch, doubling every time.
        """
        updates = [
            n.update for n in batch.notifications if self.relevant(n)
        ]
        if not updates:
            return []
        return self._ship_batch(
            updates, [(pending, len(updates)) for pending in self.uqs_queries()]
        )

    def _ship_batch(
        self, batch: List[Update], contaminated: List[Tuple[Query, int]]
    ) -> List[QueryRequest]:
        """One compensated query for ``batch``, whoever assembled it.

        ``contaminated`` pairs each query whose answer sees a prefix of
        the batch with that prefix's length: all of it for every pending
        query when a kernel coalesced the batch;
        :class:`~repro.core.batch.BatchECA` counts arrivals itself.
        """
        terms = list(batch_delta_query(self.view, batch).terms)
        for query, seen in contaminated:
            terms.extend(staged_compensation(query, batch, seen).terms)
        return self._dispatch(Query(terms))

    def _dispatch(self, query: Query) -> List[QueryRequest]:
        """Take one built query in, split: its fully bound terms' value
        (found locally, Appendix D) into COLLECT; the rest goes to the
        source.  The terms the split drops are in neither."""
        local, remote = split(query)
        if not local.is_empty():
            self._absorb(evaluate_query(local, {}))
        if remote.is_empty():
            # Nothing to ask the source; a flush may be due right now.
            self._maybe_install()
            return []
        return [self._make_request(remote)]

    # ------------------------------------------------------------------ #
    # W_ans
    # ------------------------------------------------------------------ #

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        if len(self.uqs) == 1 and self._can_install():
            # The last pending answer: install COLLECT with it before the
            # query is retired, so a delta the view rejects leaves the UQS
            # and COLLECT as they were.
            collect = self.collect + answer.answer
            if not collect.is_empty():
                self.mv.apply_delta(collect)
            self.collect = SignedBag()
        else:
            self._absorb(answer.answer)
        del self.uqs[answer.query_id]
        self.probe_index.retire(answer.query_id)
        return []

    # ------------------------------------------------------------------ #
    # COLLECT handling
    # ------------------------------------------------------------------ #

    def _absorb(self, delta: SignedBag) -> None:
        if self.buffer_answers:
            self.collect.add_bag(delta)
        else:
            # The unbuffered strawman applies answers immediately; its
            # intermediate states may hold negative replication counts
            # (invalid states), but the final sum converges.
            self.mv.apply_delta(delta, on_negative="allow")

    def _can_install(self) -> bool:
        """Whether COLLECT goes into the view once the UQS is empty."""
        return self.buffer_answers

    def _maybe_install(self) -> None:
        if self.uqs or not self._can_install() or self.collect.is_empty():
            return
        self.mv.apply_delta(self.collect)
        self.collect = SignedBag()

    def is_quiescent(self) -> bool:
        return not self.uqs and self.collect.is_empty()

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["collect_tuples"] = self.collect.total_count()
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["collect"] = self.collect.copy()
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self.collect = state["collect"].copy()
        self.probe_index = ProbeIndex(self.uqs)

    def durable_config(self) -> Dict[str, Any]:
        return {"buffer_answers": self.buffer_answers}


def _compensate_update(view: View, update: Update, pending: ProbeIndex) -> Query:
    """``V<U> - sum_j Q_j<U>``: V<U>'s terms, then each pending query's
    compensation in UQS order — less the terms whose first bound check
    the update's tuple fails, which the UQS's probe index leaves unbuilt
    (:meth:`~repro.core.compensation.ProbeIndex.candidates`).  Both sums
    bind the update's tuple in one operand per schema."""
    relation = update.relation
    signed = update.signed_tuple()
    bound: Dict[RelationSchema, BoundOperand] = {}
    query = view.substitute(relation, signed, bound)
    candidates = pending.candidates(relation, update.values)
    if not candidates:
        return query
    return Query(
        query.terms + Query(candidates).substitute(relation, signed, -1, bound).terms
    )
