"""Algorithm D.1 — the Recompute-View strategy (RV).

Every ``s`` updates the warehouse ships the full view definition ``Q = V``
to the source and *replaces* the materialized view with the answer.
``s = 1`` is the paper's RV worst case (recompute after every update);
``s = k`` is the best case (recompute once, after the last update).

RV is strongly consistent: each installed state is the view evaluated on a
real source state, in answer order.  It converges for a k-update run only
when ``k`` is a multiple of ``s`` (otherwise the tail of updates is never
reflected); the workloads in the benchmark harness always choose ``s``
accordingly, matching the paper's analysis.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.views import View


class RecomputeView(WarehouseAlgorithm):
    """Periodic full view recomputation.

    Parameters
    ----------
    view, initial:
        As for every :class:`WarehouseAlgorithm`.
    period:
        Recompute after every ``period`` relevant updates (the paper's
        ``s``, ``1 <= s <= k``).
    """

    name = "recompute"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        period: int = 1,
    ) -> None:
        if period < 1:
            raise ValueError(f"recompute period must be >= 1, got {period}")
        super().__init__(view, initial)
        self.period = period
        self._count = 0

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        self._count += 1
        if self._count < self.period:
            return []
        self._count = 0
        return [self._make_request(self.view.as_query())]

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        # Replace first, retire after: contents the view rejects leave
        # the query pending.
        self.mv.replace(answer.answer)
        del self.uqs[answer.query_id]
        return []

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["count"] = self._count
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self._count = state["count"]

    def durable_config(self) -> Dict[str, Any]:
        return {"period": self.period}
