"""The common protocol all warehouse maintenance algorithms implement.

Every execution kernel delivers source -> warehouse messages to the
algorithm through the *routed* event API: :meth:`WarehouseAlgorithm.on_update`
(the ``W_up`` event), :meth:`WarehouseAlgorithm.on_answer` (``W_ans``) and
:meth:`WarehouseAlgorithm.on_refresh` (deferred timing).  Each call names
the source the message arrived from and returns ``(destination, request)``
pairs for the kernel to ship over the per-source warehouse -> source
channels.  A ``None`` destination means "route by relation owner" — the
sole source in a single-source run.  Per Section 3, each call is atomic.

Single-source algorithm families (ECA, ECA-Key, LCA, RV, SC, ...) do not
care which channel a message arrived on: they implement the unrouted
hooks :meth:`handle_update` / :meth:`handle_answer` / :meth:`handle_refresh`
returning plain request lists, and the base class lifts those into the
routed API.  Multi-source families (Strobe, SWEEP, FragmentingIncremental)
override the routed methods directly and set ``multi_source = True``.

Algorithms own their query-id sequence so that the UQS bookkeeping stays
inside the algorithm; kernels treat query ids as opaque.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple, cast

from repro.errors import ProtocolError
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View
from repro.warehouse.state import Changes, MaterializedView

#: What every routed event handler returns: ``(destination, request)``
#: pairs.  ``destination is None`` = route by relation owner.
Routed = List[Tuple[Optional[str], QueryRequest]]


def require_width(answer: QueryAnswer, width: int) -> None:
    """Refuse an answer whose rows are not ``width`` values wide.

    Multi-source handlers cut answer rows into operand tuples by
    position; a row of another width would fail there with an untyped
    error, or slip into the view, after the query was retired.
    Single-source handlers add answer rows to COLLECT or to the view,
    where a row of another width would stay — and be written into every
    later snapshot, so each of them calls this first.
    """
    if set(map(len, answer.answer.rows())) <= {width}:
        return
    for row, _ in answer.answer.items():
        if len(row) != width:
            raise ProtocolError(
                f"answer {answer.query_id} has a row of {len(row)} value(s), "
                f"{row!r}; the query outputs {width}"
            )


class WarehouseAlgorithm:
    """Base class: query-id bookkeeping plus the routed event API.

    Single-source subclasses implement :meth:`handle_update` and
    :meth:`handle_answer`, calling :meth:`_make_request` to register
    outgoing queries in the unanswered query set (UQS).  Multi-source
    subclasses override :meth:`on_update` / :meth:`on_answer` directly.
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name = "abstract"

    #: Whether the algorithm routes queries to specific sources itself.
    #: Single-source families leave this False and are oblivious to
    #: message origins.
    multi_source = False

    #: Durability codec tag (``repro.durability.codec``); the catalog
    #: overrides this with its composite tag.
    codec_tag = "algo"

    def __init__(self, view: View, initial: Optional[SignedBag] = None) -> None:
        self.view = view
        self.mv = MaterializedView(view, initial)
        self._next_query_id = 1
        #: The unanswered query set: query id -> full query expression.
        self.uqs: Dict[int, Query] = {}
        #: relation name -> owning source name (for routing); bound by the
        #: kernel via :meth:`bind_owners`, or by multi-source constructors.
        self.owners: Dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Routed event API (called by the execution kernels)
    # ------------------------------------------------------------------ #

    def bind_owners(self, owners: Dict[str, str]) -> None:
        """Tell the algorithm which source owns each relation.

        Kernels call this once before the run starts.  Multi-source
        algorithms take owners at construction time; an explicit mapping
        always wins, so this is a no-op when owners are already set.
        """
        if not self.owners:
            self.owners = dict(owners)

    def on_update(self, source: Optional[str], notification: UpdateNotification) -> Routed:
        """Process ``W_up``: an update notification arrived from ``source``.

        Returns ``(destination, request)`` pairs to ship (possibly none).
        """
        return self._route_all(self.handle_update(notification))

    def on_update_batch(self, source: Optional[str], batch: UpdateBatch) -> Routed:
        """Process a kernel-coalesced run of updates as **one** ``W_up`` event.

        Kernels running with ``batch_k > 1`` drain consecutive
        notifications from one inbox into an
        :class:`~repro.messaging.messages.UpdateBatch` and deliver it here
        atomically — no answer or other update interleaves between the
        members.  The default preserves each family's per-update behavior
        by replaying the members in arrival order inside the one event;
        single-source families that can answer the whole run with a single
        compensating query override :meth:`handle_update_batch` instead.
        """
        if self.multi_source:
            routed: Routed = []
            for notification in batch.notifications:
                routed.extend(self.on_update(source, notification))
            return routed
        return self._route_all(self.handle_update_batch(batch))

    def on_answer(self, source: Optional[str], answer: QueryAnswer) -> Routed:
        """Process ``W_ans``: a query answer arrived from ``source``.

        Returns follow-up ``(destination, request)`` pairs (usually none).
        """
        return self._route_all(self.handle_answer(answer))

    def on_refresh(self) -> Routed:
        """Process a warehouse-client refresh request (deferred timing)."""
        return self._route_all(self.handle_refresh())

    # ------------------------------------------------------------------ #
    # Unrouted hooks (single-source subclasses implement these)
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        """Single-source ``W_up`` hook; requests are routed by owner."""
        raise NotImplementedError

    def handle_update_batch(self, batch: UpdateBatch) -> List[QueryRequest]:
        """Single-source batched ``W_up`` hook (one atomic event).

        Default: the members one after another, concatenating the
        requests.  ECA overrides this with the paper's ``Q<U1,...,Uk>``
        generalization — one compensating query for the whole run.
        """
        requests: List[QueryRequest] = []
        for notification in batch.notifications:
            requests.extend(self.handle_update(notification))
        return requests

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        """Single-source ``W_ans`` hook; requests are routed by owner."""
        raise NotImplementedError

    def handle_refresh(self) -> List[QueryRequest]:
        """Single-source refresh hook.

        Immediate-update algorithms keep the view current at all times, so
        the default is a no-op; deferred algorithms override this to flush
        buffered updates.
        """
        return []

    # ------------------------------------------------------------------ #
    # Shared plumbing
    # ------------------------------------------------------------------ #

    def _route_all(self, requests: List[QueryRequest]) -> Routed:
        """Lift unrouted requests into the routed API (owner routing)."""
        return [(None, request) for request in requests]

    def _make_request(self, query: Query) -> QueryRequest:
        """Assign a fresh id, record the query in the UQS, build the request."""
        query_id = self._next_query_id
        self._next_query_id += 1
        self.uqs[query_id] = query
        return QueryRequest(query_id, query)

    def _answered(self, answer: QueryAnswer) -> Query:
        """The pending query ``answer`` answers, left in the UQS.

        A handler whose install can still be rejected looks its query up
        here, installs, and only then deletes the entry: a rejected answer
        changes nothing.
        """
        try:
            return self.uqs[answer.query_id]
        except KeyError:
            raise ProtocolError(
                f"{self.name}: answer for unknown query id {answer.query_id}"
            ) from None

    def _retire(self, answer: QueryAnswer) -> Query:
        """Remove the answered query from the UQS and return it."""
        query = self._answered(answer)
        del self.uqs[answer.query_id]
        return query

    def uqs_queries(self) -> List[Query]:
        """Pending queries in send order.

        ``uqs`` is kept in that order: :meth:`_make_request` issues ids
        ascending, ``dict`` keeps insertion order, :meth:`_retire` only
        pops and :meth:`restore_pending_state` sorts once.
        """
        return list(self.uqs.values())

    # ------------------------------------------------------------------ #
    # Durability hooks (used by repro.durability)
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        """Everything beyond the view contents needed to resume this
        algorithm mid-protocol.

        The returned dict holds only codec-encodable values (ints, bags,
        queries, updates, and containers of them).  Subclasses that carry
        extra in-flight state extend the base dict; the pair
        ``restore_pending_state(pending_state())`` must reproduce an
        algorithm that behaves identically on every future event.
        """
        return {
            "next_query_id": self._next_query_id,
            "uqs": dict(self.uqs),
        }

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        """Inverse of :meth:`pending_state` on a freshly built instance."""
        self._next_query_id = cast(int, state["next_query_id"])
        uqs = cast(Dict[int, Query], state["uqs"])
        self.uqs = {query_id: uqs[query_id] for query_id in sorted(uqs)}

    def durable_config(self) -> Dict[str, Any]:
        """Constructor options needed to rebuild this instance by name.

        Forwarded to :func:`repro.core.registry.create_algorithm` during
        recovery, so keys must match constructor parameter names.
        """
        return {}

    def pending_requests(self) -> List[Tuple[Optional[str], QueryRequest]]:
        """Requests for every in-flight query, for re-issue after a crash.

        Each entry is ``(destination, request)``; a ``None`` destination
        means "route by owner" (single-source protocol).  The recovered
        warehouse re-sends these — sources answer against their current
        state, which is exactly what a late first answer would have seen,
        so re-asking preserves the algorithms' FIFO-based reasoning.
        """
        return [(None, QueryRequest(qid, query)) for qid, query in self.uqs.items()]

    def pending_query_ids(self) -> List[int]:
        """Ids of queries awaiting answers, in send order (for
        duplicate-answer dedup)."""
        return list(self.uqs)

    def gauges(self) -> Dict[str, int]:
        """Live in-flight sizes for the observability layer.

        Keyed by gauge name; the base protocol reports the UQS size
        (Section 5.2's unanswered query set).  Subclasses extend with
        their family-specific buffers (COLLECT tuples, batched updates,
        ...) — exported as ``repro_algorithm_gauge{gauge=...}`` by
        :class:`repro.obs.instrument.Observability`.
        """
        return {"uqs": len(self.uqs)}

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #

    def view_state(self) -> SignedBag:
        """Current materialized view contents, as a read-only snapshot.

        Shared, not copied (:meth:`MaterializedView.view_state`): it
        keeps showing this moment's contents, and the caller must not
        edit it — ``self.mv.as_bag()`` is the copy to edit.
        """
        return self.mv.view_state()

    def view_changes(self) -> Optional[Changes]:
        """What the view gained since the last call: the recorder's ``ws_j``.

        :meth:`MaterializedView.take_changes`: ``None`` the first time,
        meaning "record :meth:`view_state` whole".
        """
        return self.mv.take_changes()

    def dirty_keys(self) -> Set[Tuple[str, Tuple[object, ...]]]:
        """Serving-cache keys dirtied since the last call (and reset).

        Each entry is ``(view_name, cache_key)`` where the cache key is the
        view's serving key projected out of the dirty row — or the whole
        row when :meth:`View.serving_key_positions` finds no usable key.
        Over-invalidation is allowed; missing a changed key is not.
        """
        rows = self.mv.drain_dirty()
        if not rows:
            return set()
        name = self.view.name
        positions = self.view.serving_key_positions()
        if positions is None:
            return {(name, tuple(row)) for row in rows}
        return {(name, tuple(row[i] for i in positions)) for row in rows}

    def is_quiescent(self) -> bool:
        """True when no queries are outstanding and no work is buffered."""
        return not self.uqs

    def relevant(self, notification: UpdateNotification) -> bool:
        """Whether the update touches a relation this view is defined over."""
        return self.view.involves(notification.update.relation)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(view={self.view.name}, uqs={sorted(self.uqs)})"
