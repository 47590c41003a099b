"""Batched and deferred ECA — Section 7's first future-work item, built.

The paper: "We will consider how ECA can be extended to handle a set of
updates at once ... since we expect that in practice many source updates
will be 'batched,' this extension should result in a very useful
performance enhancement."  And Section 2 notes the algorithms apply to
deferred and periodic maintenance timing "with little or no modification".

Both live here, as one algorithm with two flush triggers — ECA with a
buffer in front; a flush ships its query through the routine a
kernel-coalesced batch uses (:meth:`~repro.core.eca.ECA._ship_batch`):

- :class:`BatchECA` buffers incoming update notifications and, every
  ``batch_size`` updates, ships a *single* compensated query for the whole
  batch: ``sum_j D(V<U_j>, rest-of-batch)`` (the Lemma B.2 backdating that
  makes each per-update delta read as of its own source state), plus a
  staged correction for every query that was in flight while buffered
  updates arrived.
- :class:`DeferredECA` flushes only when a warehouse client *reads* the
  view (a :class:`~repro.messaging.messages.RefreshRequest`; place
  :data:`repro.simulation.driver.REFRESH` markers in the workload) —
  deferred maintenance.  Issue refreshes at fixed intervals and you have
  periodic maintenance.

Message economics: k updates cost ``2 * ceil(k / batch_size)`` messages
instead of ECA's ``2k``, interpolating between ECA (``batch_size=1``) and
a single incremental round-trip per refresh.

Compensation bookkeeping (where this genuinely extends ECA): because
compensation is *deferred* to flush time, a contaminated query may already
have been answered and left the UQS.  The algorithm therefore remembers,
for every query sent, how many currently-buffered updates arrived while it
was in flight (always a prefix of the buffer, by FIFO), and at flush time
ships :func:`~repro.core.compensation.staged_compensation` for each —
whether or not the query is still pending.  The view installs only when
the UQS is empty and no such un-flushed contamination exists.

Convergence for a finite run requires a final flush — end workloads with a
``REFRESH`` marker, pick a ``batch_size`` dividing the update count, or
call :meth:`BatchECA.flush`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.eca import ECA
from repro.core.protocol import WarehouseAlgorithm
from repro.messaging.messages import QueryRequest, UpdateBatch, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.source.updates import Update


class BatchECA(ECA):
    """ECA with warehouse-side update batching.

    Parameters
    ----------
    view, initial:
        As for every :class:`WarehouseAlgorithm`.
    batch_size:
        Flush automatically once this many relevant updates are buffered;
        ``None`` disables automatic flushing (refresh-triggered only).
        ``batch_size=1`` behaves like ECA, one query per update.
    """

    name = "batch-eca"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        batch_size: Optional[int] = 4,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1 or None, got {batch_size}")
        super().__init__(view, initial)
        self.batch_size = batch_size
        self._buffer: List[Update] = []
        #: query id -> full query expression, kept past retirement while
        #: un-flushed contamination refers to it.
        self._sent: Dict[int, Query] = {}
        #: query id -> how many of the *current* buffer's updates arrived
        #: while the query was in flight (a prefix of the buffer).
        self._seen: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # W_up
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        self._buffer.append(notification.update)
        for query_id in self.uqs:
            self._seen[query_id] = self._seen.get(query_id, 0) + 1
        if self.batch_size is not None and len(self._buffer) >= self.batch_size:
            return self.flush()
        return []

    def handle_update_batch(self, batch: UpdateBatch) -> List[QueryRequest]:
        # A kernel-coalesced run enters the buffer member by member: the
        # flush triggers, not the kernel, decide what ships together.
        return WarehouseAlgorithm.handle_update_batch(self, batch)

    # ------------------------------------------------------------------ #
    # Flush
    # ------------------------------------------------------------------ #

    def flush(self) -> List[QueryRequest]:
        """Ship one compensated query covering every buffered update."""
        if not self._buffer:
            return []
        batch, self._buffer = self._buffer, []
        contaminated = [
            (self._sent[query_id], count)
            for query_id, count in self._seen.items()
            if count
        ]
        self._seen.clear()
        # Expressions for already-answered queries are no longer needed.
        for query_id in list(self._sent):
            if query_id not in self.uqs:
                del self._sent[query_id]
        return self._ship_batch(batch, contaminated)

    def _dispatch(self, query: Query) -> List[QueryRequest]:
        requests = super()._dispatch(query)
        for request in requests:
            self._sent[request.query_id] = request.query
        return requests

    def handle_refresh(self) -> List[QueryRequest]:
        return self.flush()

    def _can_install(self) -> bool:
        # While some already-received answer saw buffered updates whose
        # compensation has not shipped yet, installing would expose an
        # invalid state.
        return super()._can_install() and not any(self._seen.values())

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    def buffered_updates(self) -> int:
        return len(self._buffer)

    def is_quiescent(self) -> bool:
        return super().is_quiescent() and not self._buffer

    def gauges(self) -> Dict[str, int]:
        out = super().gauges()
        out["buffered_updates"] = len(self._buffer)
        return out

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["buffer"] = list(self._buffer)
        state["sent"] = dict(self._sent)
        state["seen"] = dict(self._seen)
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self._buffer = list(state["buffer"])
        self._sent = dict(state["sent"])
        self._seen = dict(state["seen"])

    def durable_config(self) -> Dict[str, Any]:
        # buffer_answers is pinned by the constructor, not a ctor parameter.
        return {"batch_size": self.batch_size}


class DeferredECA(BatchECA):
    """Deferred maintenance: flush only when the view is read."""

    name = "deferred-eca"

    def __init__(self, view: View, initial: Optional[SignedBag] = None) -> None:
        super().__init__(view, initial, batch_size=None)

    def durable_config(self) -> Dict[str, Any]:
        # batch_size is pinned by the constructor, not a ctor parameter.
        return {}
