"""The common protocol all warehouse maintenance algorithms implement.

Every execution kernel delivers source -> warehouse messages to the
algorithm through the *routed* event API: :meth:`WarehouseAlgorithm.on_update`
(the ``W_up`` event), :meth:`WarehouseAlgorithm.on_answer` (``W_ans``) and
:meth:`WarehouseAlgorithm.on_refresh` (deferred timing).  Each call names
the source the message arrived from and returns ``(destination, request)``
pairs for the kernel to ship over the per-source warehouse -> source
channels.  A ``None`` destination means "route by relation owner" — the
sole source in a single-source run.  Per Section 3, each call is atomic.

Every family implements the unrouted hooks :meth:`handle_update` /
:meth:`handle_answer` / :meth:`handle_refresh` returning plain request
lists, and the base class lifts those into the routed API: a
single-source family's requests go out with a ``None`` destination, a
multi-source family's (Strobe, SWEEP, FragmentingIncremental, which set
``multi_source = True``) to :func:`query_owner` of each query.

Algorithms own their query-id sequence and the unanswered query set
(UQS, Section 5.2) it feeds, one for every family; kernels treat query
ids as opaque.  :meth:`WarehouseAlgorithm.on_answer` refuses what no
family may accept — an id not in the UQS, an answer from another source
than the query's, rows of another width than its output — before any
family code runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple, cast

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


def require_width(answer: QueryAnswer, query: Query) -> None:
    """Refuse an answer whose rows are not as wide as ``query``'s output.

    Handlers add answer rows to COLLECT or to the view, or cut them into
    operand tuples by position; a row of another width would stay there
    — and be written into every later snapshot — or fail with an untyped
    error after the query was retired.
    """
    width = len(query.terms[0].projection)
    if set(map(len, answer.answer.rows())) <= {width}:
        return
    for row, _ in answer.answer.items():
        if len(row) != width:
            raise ProtocolError(
                f"answer {answer.query_id} has a row of {len(row)} value(s), "
                f"{row!r}; the query outputs {width}"
            )


def query_owner(query: Query, owners: Mapping[str, str]) -> str:
    """The single source owning every base relation the query reads."""
    found = set()
    for term in query.terms:
        for operand in term.operands:
            if operand.is_bound:
                continue
            relation = operand.source_relation
            try:
                found.add(owners[relation])
            except KeyError:
                raise ProtocolError(
                    f"no source owns relation {relation!r}"
                ) from None
    if len(found) != 1:
        raise ProtocolError(
            f"query reads relations of sources {sorted(found)!r}; "
            f"single-source algorithms need fragment routing — use a "
            f"multi-source algorithm (e.g. StrobeStyle) for spanning views"
        )
    return found.pop()


class WarehouseAlgorithm:
    """Base class: the unanswered query set plus the routed event API.

    Subclasses implement :meth:`handle_update` and :meth:`handle_answer`,
    calling :meth:`_make_request` to register every outgoing query in
    the unanswered query set (UQS) and deleting an answered query's
    entry in their own order relative to installing its answer.
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name = "abstract"

    #: Whether each query goes to the owner of the relations it reads.
    #: Single-source families leave this False: their queries are
    #: owner-routed and their answers come from :attr:`answer_source`.
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
        #: relation name -> owning source name (for routing and the answer
        #: gate); bound via :meth:`bind_owners`, or by multi-source
        #: constructors.
        self.owners: Dict[str, str] = {}
        #: The one source owning every relation the view reads, once
        #: :meth:`bind_owners` knows it: the only origin :meth:`on_answer`
        #: accepts for a single-source family.  ``None`` (unbound, or a
        #: view over several sources) checks nothing.
        self.answer_source: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Routed event API (called by the execution kernels)
    # ------------------------------------------------------------------ #

    def bind_owners(self, owners: Dict[str, str]) -> None:
        """Tell the algorithm which source owns each relation.

        :func:`~repro.core.registry.build_algorithm` and every kernel call
        this before the first event.  The first map bound (or one a
        multi-source constructor took) is kept; a later map must name the
        same owner for every relation the view reads, or a
        :class:`ProtocolError` names the relation and both owners.
        Rebinding the same map, as a recovered incarnation does, passes.
        A map that lacks a relation the view reads is refused too, naming
        the relation: no source of the run could answer for it.
        """
        terms = self.view.as_query().terms
        read = sorted({name for term in terms for name in term.source_relation_names})
        held = self.owners or owners
        for relation in read:
            if relation not in owners:
                raise ProtocolError(
                    f"{self.name}: no source of the run owns relation {relation!r}"
                )
            if held.get(relation) != owners[relation]:
                raise ProtocolError(
                    f"{self.name}: relation {relation!r} is owned by "
                    f"{held.get(relation)!r} in the map it holds and by "
                    f"{owners[relation]!r} in the run's"
                )
        self.owners = dict(held)
        found = {owners[relation] for relation in read}
        self.answer_source = found.pop() if len(found) == 1 else None

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
        return self._route_all(self.handle_update_batch(batch))

    def on_answer(self, source: Optional[str], answer: QueryAnswer) -> Routed:
        """Process ``W_ans``: a query answer arrived from ``source``.

        Returns follow-up ``(destination, request)`` pairs (usually none).
        Before :meth:`handle_answer` runs, the answer is refused if its id
        is not in the UQS, if it came from another source than the one
        its query went to (:attr:`answer_source` for a single-source
        family, :func:`query_owner` of the query for a multi-source one),
        or if its rows are not as wide as the query's output.
        """
        try:
            query = self.uqs[answer.query_id]
        except KeyError:
            raise ProtocolError(
                f"{self.name}: answer for unknown query id {answer.query_id}"
            ) from None
        if self.multi_source:
            expected: Optional[str] = query_owner(query, self.owners)
        else:
            expected = self.answer_source
        if expected is not None and source != expected:
            raise ProtocolError(
                f"{self.name}: answer {answer.query_id} for view "
                f"{self.view.name!r} came from {source}, not from {expected}"
            )
        require_width(answer, query)
        return self._route_all(self.handle_answer(answer))

    def on_refresh(self) -> Routed:
        """Process a warehouse-client refresh request (deferred timing)."""
        return self._route_all(self.handle_refresh())

    # ------------------------------------------------------------------ #
    # Unrouted hooks (single-source subclasses implement these)
    # ------------------------------------------------------------------ #

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        """``W_up`` hook; :meth:`_route_all` routes the requests."""
        raise NotImplementedError

    def handle_update_batch(self, batch: UpdateBatch) -> List[QueryRequest]:
        """Batched ``W_up`` hook (one atomic event).

        Default: the members one after another, concatenating the
        requests.  ECA overrides this with the paper's ``Q<U1,...,Uk>``
        generalization — one compensating query for the whole run.
        """
        requests: List[QueryRequest] = []
        for notification in batch.notifications:
            requests.extend(self.handle_update(notification))
        return requests

    def handle_answer(self, answer: QueryAnswer) -> List[QueryRequest]:
        """``W_ans`` hook for an answer :meth:`on_answer` let through.

        The answered query is still in the UQS; the hook deletes it.
        """
        raise NotImplementedError

    def handle_refresh(self) -> List[QueryRequest]:
        """Refresh hook.

        Immediate-update algorithms keep the view current at all times, so
        the default is a no-op; deferred algorithms override this to flush
        buffered updates.
        """
        return []

    # ------------------------------------------------------------------ #
    # Shared plumbing
    # ------------------------------------------------------------------ #

    def _route_all(self, requests: List[QueryRequest]) -> Routed:
        """Lift unrouted requests into the routed API: owner routing for
        a single-source family, each query's owner for a multi-source one."""
        if self.multi_source:
            return [(query_owner(r.query, self.owners), r) for r in requests]
        return [(None, request) for request in requests]

    def _make_request(self, query: Query) -> QueryRequest:
        """Assign a fresh id, record the query in the UQS, build the request."""
        query_id = self._next_query_id
        self._next_query_id += 1
        self.uqs[query_id] = query
        return QueryRequest(query_id, query)

    def uqs_queries(self) -> List[Query]:
        """Pending queries in send order.

        ``uqs`` is kept in that order: :meth:`_make_request` issues ids
        ascending, ``dict`` keeps insertion order, handlers only delete
        and :meth:`restore_pending_state` sorts once.
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
        recovery, so keys must match constructor parameter names.  A
        multi-source family is rebuilt with its ``owners``.
        """
        return {"owners": dict(self.owners)} if self.multi_source else {}

    def pending_requests(self) -> List[Tuple[Optional[str], QueryRequest]]:
        """Requests for every in-flight query, for re-issue after a crash.

        One ``(destination, request)`` per UQS entry, in send order,
        routed as :meth:`_route_all` routed it the first time.  The
        recovered warehouse re-sends these — sources answer against their
        current state, which is exactly what a late first answer would
        have seen, so re-asking preserves the algorithms' FIFO-based
        reasoning.
        """
        return self._route_all(
            [QueryRequest(query_id, query) for query_id, query in self.uqs.items()]
        )

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

    def is_quiescent(self) -> bool:
        """True when no queries are outstanding and no work is buffered."""
        return not self.uqs

    def relevant(self, notification: UpdateNotification) -> bool:
        """Whether the update touches a relation this view is defined over."""
        return self.view.involves(notification.update.relation)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(view={self.view.name}, uqs={sorted(self.uqs)})"
