"""Section 5.4 — the ECA-Key algorithm (ECA_K).

Applicable when the view projects a key of every base relation.  Then:

1. ``COLLECT`` is a *working copy* of the materialized view, not a delta
   buffer.
2. A delete is handled entirely at the warehouse with ``key-delete`` — no
   query is sent to the source.
3. An insert sends plain ``V<U>`` with **no** compensating queries.
4. Answers merge into ``COLLECT`` with duplicate suppression: a key-
   complete view cannot contain duplicates, so any duplicate is an anomaly
   echo and is dropped.
5. Whenever the UQS is empty after processing an event, the view is
   *replaced* by ``COLLECT`` (which is not reset).

One correction over the paper's description is required for correctness.
Appendix C (Case II(a)) argues a late insert answer cannot resurrect a
deleted tuple because the query "does not see one of the key values of
t" — but when the *deleted tuple is the one the pending insert query is
bound to*, the query carries that key as a constant and its answer still
contains the derived tuples.  Concretely: ``U_j = insert(r2, t)``,
``Q_j = V<t>`` in flight, ``U_d = delete(r2, t)`` processed at the
warehouse (key-delete), then ``A_j`` — evaluated at the source *after*
``U_d`` — arrives and re-adds the tuples ``key-delete`` just removed.
The fix: every key-delete is also recorded as a *filter* against the
queries pending at that moment; tuples matching a recorded filter are
dropped from those queries' answers.  FIFO delivery makes this precise:
an answer evaluated before the delete arrives before the delete's
notification and is never filtered, and an answer evaluated after it must
not contain the key (a later re-insert of the same key sends its own,
unfiltered, query).  Randomized interleaving tests exercise this path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import ProtocolError, SchemaError
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.views import View
from repro.warehouse.state import key_delete


class ECAKey(WarehouseAlgorithm):
    """ECA streamlined for views containing every base relation's key.

    Parameters
    ----------
    view, initial:
        As for every :class:`WarehouseAlgorithm`.
    inflight_filter:
        Apply the in-flight key-delete filters (the correction described
        in the module docstring).  ``False`` reproduces the paper's prose
        verbatim — kept only so the tests can demonstrate the gap; do not
        disable in real use.
    """

    name = "eca-key"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        inflight_filter: bool = True,
    ) -> None:
        if not view.contains_all_keys():
            raise SchemaError(
                f"ECA-Key requires view {view.name!r} to project a key of "
                f"every base relation"
            )
        super().__init__(view, initial)
        self.inflight_filter = inflight_filter
        # Working copy of MV (rule 1).
        self.collect: SignedBag = self.mv.as_bag()
        # query id -> key-delete filters recorded while it was in flight;
        # each filter is (key output positions, key values).
        self._filters: Dict[int, List[Tuple[Tuple[int, ...], Tuple[object, ...]]]] = {}

    # ------------------------------------------------------------------ #
    # W_up
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        if update.is_delete:
            key_delete(self.collect, self.view, update.relation, update.values)
            # Record the deletion against every in-flight query: their
            # answers may be evaluated after this delete yet still carry
            # the deleted key (see module docstring).
            if self.inflight_filter:
                schema = self.view.schema_for(update.relation)
                positions = self.view.key_output_positions(update.relation)
                key = schema.key_of(update.values)
                for query_id in self.uqs:
                    self._filters.setdefault(query_id, []).append((positions, key))
            self._maybe_install()
            return []
        query = self.view.substitute(update.relation, update.signed_tuple())
        return [self._make_request(query)]

    # ------------------------------------------------------------------ #
    # W_ans
    # ------------------------------------------------------------------ #

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        for row, count in answer.answer.items():
            if count <= 0:
                # Cannot happen for V<insert> answers; be defensive so a
                # mis-wired source surfaces loudly in tests.  Validated
                # *before* retiring: the failure must leave the UQS and
                # filter tables exactly as they were
                # (tests/property/test_rejected_events.py).
                raise ProtocolError(
                    f"ECA-Key received a negative answer tuple {row!r}"
                )
        del self.uqs[answer.query_id]
        filters = self._filters.pop(answer.query_id, [])
        # Rule 4: merge, dropping duplicates.  Insert answers are all
        # positive (the bound tuple carries +, base tuples carry +).
        for row, count in answer.answer.items():
            if any(
                tuple(row[i] for i in positions) == key
                for positions, key in filters
            ):
                # The tuple was key-deleted while this query was in
                # flight; the answer saw the deleted key only through its
                # bound tuple.
                continue
            if self.collect.multiplicity(row) == 0:
                self.collect.add(row, 1)
        self._maybe_install()
        return []

    def _maybe_install(self) -> None:
        if not self.uqs:
            self.mv.replace(self.collect)

    def is_quiescent(self) -> bool:
        return not self.uqs

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["collect"] = self.collect.copy()
        state["filters"] = {
            query_id: list(filters) for query_id, filters in self._filters.items()
        }
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self.collect = state["collect"].copy()
        self._filters = {
            query_id: [(tuple(positions), tuple(key)) for positions, key in filters]
            for query_id, filters in state["filters"].items()
        }

    def durable_config(self) -> Dict[str, Any]:
        return {"inflight_filter": self.inflight_filter}
