"""Section 5.3 — the Lazy Compensating Algorithm (LCA).

The paper defines completeness (every source state is reflected in some
view state) and notes that ECA misses intermediate states while COLLECT
accumulates; LCA is the *complete* variant it sketches: "for each source
update, LCA waits until it has received all query answers (including
compensation) for the update, then applies the changes for that update to
the view".  The full description is "beyond the scope" of the paper, so the
implementation below pins down the details:

- Updates are processed one at a time, in arrival order, from a queue.
  While ``U_i`` is being processed the view stays at ``V[ss_{i-1}]``; when
  ``U_i``'s delta is complete, ``MV <- MV + delta`` moves it to
  ``V[ss_i]``.  The view therefore steps through *every* source state in
  order: strong consistency plus completeness.
- Compensation happens at two moments:

  1. **At send time.**  When ``U_i`` is started, later updates
     ``L = U_{i+1}..U_m`` may already be known (their notifications were
     queued behind ``U_i``), and the source has already executed them.  We
     need ``V<U_i>`` *as of state* ``ss_i``, so we ship the Lemma B.2
     expansion ``D(Q, L) = D(Q, L[1:]) - D(Q<L[0]>, L[1:])`` with
     ``D(Q, []) = Q`` — the alternating sum over prefixes of later
     updates.  (ECA never needs this because it always sends immediately
     on notification; LCA delays sends, so it must back-date them.)
  2. **At arrival time.**  When a new update's notification arrives while
     queries are in flight, FIFO delivery implies the source executed it
     before answering them, so each in-flight query ``Q`` gets a
     compensating query ``-Q<U>`` — exactly ECA's deduction.

- As in ECA, fully-bound terms are evaluated at the warehouse and folded
  straight into the delta rather than shipped.

LCA pays for completeness with more queries and strictly serialized
processing — Section 5.3's remark that it is "less efficient than ECA".
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.compensation import backdate
from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_query
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.source.updates import Update


class LCA(WarehouseAlgorithm):
    """The Lazy Compensating Algorithm — strongly consistent and complete."""

    name = "lca"

    def __init__(self, view: View, initial: Optional[SignedBag] = None) -> None:
        super().__init__(view, initial)
        #: Updates received but not yet applied, with the number of
        #: relevant updates seen before each (to recover "later" updates).
        self._pending: Deque[Tuple[int, Update]] = deque()
        #: All relevant updates seen, in arrival order.
        self._seen: List[Update] = []
        self._current: Optional[Update] = None
        self._delta = SignedBag()

    # ------------------------------------------------------------------ #
    # W_up
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        requests: List[QueryRequest] = []
        # Arrival-time compensation for in-flight queries (all of which
        # belong to the update currently being processed).
        signed = update.signed_tuple()
        for pending_query in self.uqs_queries():
            compensation = pending_query.substitute(update.relation, signed, -1)
            requests.extend(self._dispatch(compensation))
        self._pending.append((len(self._seen), update))
        self._seen.append(update)
        if self._current is None:
            requests.extend(self._start_next())
        return requests

    # ------------------------------------------------------------------ #
    # W_ans
    # ------------------------------------------------------------------ #

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        self._retire(answer)
        self._delta.add_bag(answer.answer)
        return self._finish_if_done()

    # ------------------------------------------------------------------ #
    # Per-update processing
    # ------------------------------------------------------------------ #

    def _start_next(self) -> List[QueryRequest]:
        requests: List[QueryRequest] = []
        while self._pending and self._current is None:
            index, update = self._pending.popleft()
            self._current = update
            self._delta = SignedBag()
            base = self.view.substitute(update.relation, update.signed_tuple())
            later = self._seen[index + 1 :]
            query = backdate(base, later)
            requests.extend(self._dispatch(query))
            requests.extend(self._finish_if_done())
        return requests

    def _dispatch(self, query: Query) -> List[QueryRequest]:
        local, remote = query.partition()
        if not local.is_empty():
            self._delta.add_bag(evaluate_query(local, {}))
        if remote.is_empty():
            return []
        return [self._make_request(remote)]

    def _finish_if_done(self) -> List[QueryRequest]:
        if self._current is None or self.uqs:
            return []
        self.mv.apply_delta(self._delta)
        self._delta = SignedBag()
        self._current = None
        return self._start_next()

    def is_quiescent(self) -> bool:
        return not self.uqs and self._current is None and not self._pending

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["queued_updates"] = len(self._pending) + (
            1 if self._current is not None else 0
        )
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["queued"] = [(index, update) for index, update in self._pending]
        state["seen"] = list(self._seen)
        state["current"] = self._current
        # The in-progress delta goes through the canonical pair form so
        # the persisted payload is independent of dict insertion order.
        state["delta"] = self._delta.to_pairs()
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self._pending = deque(
            (index, update) for index, update in state["queued"]
        )
        self._seen = list(state["seen"])
        self._current = state["current"]
        self._delta = SignedBag.from_pairs(state["delta"])
