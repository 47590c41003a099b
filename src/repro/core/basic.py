"""Algorithm 5.1 — the conventional incremental algorithm, unmodified.

This is the [BLT86]-style centralized algorithm transplanted verbatim into
the warehousing environment: on update ``U_i`` send ``Q_i = V<U_i>``, on
answer apply ``MV <- MV + A_i`` immediately.  Examples 2 and 3 of the paper
show it is neither convergent nor weakly consistent here; we keep it as the
baseline whose anomalies the test suite and examples demonstrate.
"""

from __future__ import annotations

from typing import List

from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import QueryAnswer, QueryRequest, UpdateNotification


class BasicAlgorithm(WarehouseAlgorithm):
    """The anomalous baseline: no compensation, no answer buffering."""

    name = "basic"

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        query = self.view.substitute(update.relation, update.signed_tuple())
        return [self._make_request(query)]

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        self._retire(answer)
        # Clamp: anomalies can legitimately drive multiplicities
        # negative (e.g. a deletion answered twice); the paper's broken
        # baseline would do the same, and we want to observe the wrong
        # final state rather than crash.
        self.mv.apply_delta(answer.answer, on_negative="clamp")
        return []
