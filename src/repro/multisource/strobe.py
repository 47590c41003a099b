"""A Strobe-style correct multi-source algorithm.

The paper defers multi-source views to future work; the authors' own
follow-up (Zhuge et al., "The Strobe Algorithms for Multi-Source
Warehouse Consistency", 1996) solved it for key-complete views.  This
module implements the same idea on our substrate, so the repository
contains not just the *demonstration* of the open problem
(:class:`~repro.multisource.algorithms.FragmentingIncremental`) but a
working answer to it:

- the view must project a key of every base relation (as in ECA-Key) and
  is maintained with **set semantics** — provenance by key is what makes
  cross-source races resolvable;
- the warehouse accumulates an **action list** (AL) instead of touching
  the view directly;
- a **delete** appends ``key-delete`` to the AL immediately and is also
  registered as a filter against every query currently in flight (the
  same correction our single-source ECA-Key needed — a pending insert
  query carries the deleted key as a bound constant and its late answer
  must not resurrect the tuple);
- an **insert** fans out fragment queries to the owning sources; when the
  last fragment answer arrives, the reassembled tuples (minus filtered
  keys) are appended to the AL as inserts;
- when **no queries are pending**, the AL is applied to the materialized
  view atomically (deletes by key, inserts with duplicate suppression)
  — the quiescent-apply that keeps intermediate states invisible.

Why this dodges the naive transplant's failure: double derivations caused
by a fragment reading another source *after* a concurrent insert collapse
under set semantics (the concurrent insert's own query derives the same
tuple, and duplicates are suppressed), missing derivations are covered by
the concurrent update's own query, and delete races are covered by the
filter + ordered AL.  We validate the claim empirically: over randomized
workloads and interleavings the algorithm is always cut-consistent and
convergent (``tests/integration/test_strobe.py``), while the naive
transplant fails on roughly half of them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.protocol import WarehouseAlgorithm, query_owner
from repro.errors import ProtocolError, SchemaError
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.multisource.fragment import FragmentPlan, fragment_query
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.warehouse.state import key_delete

_DELETE = "delete"
_INSERT = "insert"


class _PendingInsert:
    """One insert's fragment plans awaiting answers, plus delete filters."""

    def __init__(self) -> None:
        self.plans: List[Tuple[FragmentPlan, Dict[str, SignedBag]]] = []
        self.outstanding = 0
        #: (key output positions, key values) registered while in flight.
        self.filters: List[Tuple[Tuple[int, ...], Tuple[object, ...]]] = []


class StrobeStyle(WarehouseAlgorithm):
    """Correct multi-source maintenance for key-complete views."""

    name = "strobe"
    multi_source = True

    def __init__(
        self,
        view: View,
        owners: Optional[Dict[str, str]] = None,
        initial: Optional[SignedBag] = None,
    ) -> None:
        if not view.contains_all_keys():
            raise SchemaError(
                f"the Strobe-style algorithm requires view {view.name!r} to "
                f"project a key of every base relation"
            )
        super().__init__(view, initial)
        if owners:
            self.owners = dict(owners)
        #: query id -> (pending insert record, its plan index)
        self._route: Dict[int, Tuple[_PendingInsert, int]] = {}
        self._pending: List[_PendingInsert] = []
        #: The action list: ("delete", relation, values) | ("insert", bag).
        self._actions: List[Tuple] = []

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        if update.is_delete:
            self._actions.append((_DELETE, update.relation, update.values))
            schema = self.view.schema_for(update.relation)
            positions = self.view.key_output_positions(update.relation)
            key = schema.key_of(update.values)
            for pending in self._pending:
                pending.filters.append((positions, key))
            self._maybe_apply()
            return []
        # Insert: fan fragments out to the owning sources.
        query = self.view.substitute(update.relation, update.signed_tuple())
        record = _PendingInsert()
        requests: List[QueryRequest] = []
        for plan in fragment_query(query, self.owners):
            answers: Dict[str, SignedBag] = {}
            plan_index = len(record.plans)
            record.plans.append((plan, answers))
            if plan.is_local():
                continue  # fully bound; reassembles with no answers
            for fragment in plan.fragments.values():
                request = self._make_request(Query([fragment]))
                self._route[request.query_id] = (record, plan_index)
                record.outstanding += 1
                requests.append(request)
        if record.outstanding:
            self._pending.append(record)
        else:
            self._finish_insert(record)
            self._maybe_apply()
        return requests

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        if not answer.answer.is_nonnegative():
            # An insert's fragment reads positive data through unsigned
            # constants: a minus sign is a mis-wired source.  Refused
            # before the route is popped, so nothing changes.
            raise ProtocolError(
                f"fragment {answer.query_id} answered with a negative tuple"
            )
        record, plan_index = self._route.pop(answer.query_id)
        _, answers = record.plans[plan_index]
        answers[query_owner(self.uqs.pop(answer.query_id), self.owners)] = answer.answer
        record.outstanding -= 1
        if record.outstanding == 0:
            self._pending.remove(record)
            self._finish_insert(record)
        self._maybe_apply()
        return []

    # ------------------------------------------------------------------ #
    # Action list
    # ------------------------------------------------------------------ #

    def _finish_insert(self, record: _PendingInsert) -> None:
        derived = SignedBag()
        for plan, answers in record.plans:
            derived.add_bag(plan.reassemble(answers))
        survivors = SignedBag()
        for row, count in derived.items():
            if count <= 0:
                # Insert queries over positive data cannot produce signed
                # tuples; surface a mis-wired source loudly.
                raise ProtocolError(f"negative derivation {row!r} for an insert")
            if any(
                tuple(row[i] for i in positions) == key
                for positions, key in record.filters
            ):
                continue  # deleted while the query was in flight
            survivors.add(row, 1)  # set semantics
        if not survivors.is_empty():
            self._actions.append((_INSERT, survivors))

    def _maybe_apply(self) -> None:
        if self._pending or not self._actions:
            return
        working = self.mv.as_bag()
        for action in self._actions:
            if action[0] == _DELETE:
                key_delete(working, self.view, action[1], action[2])
            else:
                for row in action[1].rows():
                    if working.multiplicity(row) == 0:
                        working.add(row, 1)
        self._actions = []
        self.mv.replace(working)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def is_quiescent(self) -> bool:
        return not self._pending and not self._actions

    def gauges(self) -> Dict[str, int]:
        """Strobe's in-flight state: open queries, pending inserts, AL size."""
        out = super().gauges()
        out["pending_inserts"] = len(self._pending)
        out["action_list"] = len(self._actions)
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        # A FragmentPlan is fully derived from (term, owners), so only the
        # term persists, as a one-term query; routes refer to pending
        # records by list index.
        pending = [
            {
                "plans": [
                    (Query([plan.term]), dict(answers))
                    for plan, answers in record.plans
                ],
                "outstanding": record.outstanding,
                "filters": list(record.filters),
            }
            for record in self._pending
        ]
        route = {
            query_id: (
                self._pending.index(record),
                plan_index,
                query_owner(self.uqs[query_id], self.owners),
            )
            for query_id, (record, plan_index) in self._route.items()
        }
        return {
            "next_query_id": self._next_query_id,
            "actions": list(self._actions),
            "pending": pending,
            "route": route,
        }

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        self._next_query_id = state["next_query_id"]
        self._actions = [tuple(action) for action in state["actions"]]
        self._pending = []
        for entry in state["pending"]:
            record = _PendingInsert()
            record.plans = [
                (FragmentPlan(query.terms[0], self.owners), dict(answers))
                for query, answers in entry["plans"]
            ]
            record.outstanding = entry["outstanding"]
            record.filters = [
                (tuple(positions), tuple(key)) for positions, key in entry["filters"]
            ]
            self._pending.append(record)
        self._route = {}
        self.uqs = {}
        for query_id in sorted(state["route"]):
            record_index, plan_index, destination = state["route"][query_id]
            record = self._pending[record_index]
            self._route[query_id] = (record, plan_index)
            plan = record.plans[plan_index][0]
            self.uqs[query_id] = Query([plan.fragments[destination]])
