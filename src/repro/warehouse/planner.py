"""The deduplicating compensation planner behind the warehouse catalog.

Section 7 applies ECA "to each view separately", so N overlapping views
answer one update with N near-identical compensating queries.  Multi-
query optimization over maintenance expressions (Mistry et al.,
arXiv:cs/0003006) observes that the shared subexpression is the dominant
cost, and here the sharing unit is the **whole compensating query**:
within one atomic warehouse event, member requests whose queries have
equal canonical signatures (:func:`repro.relational.signature.
query_signature`) and equal routing are collapsed into a single
:class:`~repro.messaging.messages.QueryRequest`; the one answer fans
back to every subscriber.

Why whole queries, and why only within one event?  A source answers each
request against its state *at evaluation time*.  Two requests issued in
different events may be evaluated at different source states, so merging
them would hand one view an answer computed at a state its own FIFO
reasoning never admits.  Within a single atomic event the member queries
are built against the same warehouse knowledge and ship at the same
instant on the same FIFO channel, so one evaluation serves all
subscribers with the exact bag each would have received alone — that is
what keeps every view's UQS semantics byte-for-byte intact (see
``docs/MULTIVIEW.md`` for the worked example and the caveats).

The planner is **pure** bookkeeping: it never touches a channel, clock,
or randomness, so recovery can rebuild it from its durable route table
and re-plan deterministically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.messaging.messages import QueryRequest
from repro.relational.signature import query_signature

#: One member view's request: ``(view name, destination, request)``.
MemberRequest = Tuple[str, Optional[str], QueryRequest]

#: ``(view name, that view's local query id)`` — one fan-out target.
Subscriber = Tuple[str, int]


class CompensationPlanner:
    """Groups one event's member requests into distinct shared queries.

    Parameters
    ----------
    share:
        When False (the default), every member request gets its own
        global id in encounter order — byte-identical to the historical
        1:1 multiplexer.  When True, requests with equal ``(destination,
        query signature)`` within one :meth:`plan` call share a single
        global id and wire query.
    """

    __slots__ = ("share", "_next_query_id", "_routes", "issued", "saved")

    def __init__(self, share: bool = False) -> None:
        self.share = share
        self._next_query_id = 1
        #: global query id -> ordered fan-out targets.
        self._routes: Dict[int, Tuple[Subscriber, ...]] = {}
        #: Requests actually shipped (one per distinct group).
        self.issued = 0
        #: Member requests absorbed into an already-planned group —
        #: source round trips the sharing avoided.
        self.saved = 0

    # ------------------------------------------------------------------ #
    # Planning (one call = one atomic warehouse event)
    # ------------------------------------------------------------------ #

    def plan(
        self, members: List[MemberRequest]
    ) -> List[Tuple[Optional[str], QueryRequest]]:
        """Assign global ids to one event's member requests.

        Grouping never crosses a :meth:`plan` call: requests from
        different events may be evaluated at different source states, so
        only same-event duplicates are safe to collapse.  The shipped
        request carries the first subscriber's query object; signature
        equality guarantees every subscriber's query evaluates to the
        same bag on any source state.

        The views of a class ship one ``Query`` object between them
        (:class:`~repro.core.compensation.CompensationMemo`), so a
        signature is computed once per distinct object of the call —
        kept by identity for this call only, while ``members`` holds
        every object alive.
        """
        out: List[Tuple[Optional[str], QueryRequest]] = []
        groups: Dict[Tuple[object, ...], int] = {}
        signatures: Dict[int, Tuple[object, ...]] = {}
        for view_name, destination, request in members:
            if self.share:
                query = request.query
                signature = signatures.get(id(query))
                if signature is None:
                    signature = signatures[id(query)] = query_signature(query)
                key = (destination, signature)
                shared_id = groups.get(key)
                if shared_id is not None:
                    self._routes[shared_id] += ((view_name, request.query_id),)
                    self.saved += 1
                    continue
            global_id = self._next_query_id
            self._next_query_id += 1
            self._routes[global_id] = ((view_name, request.query_id),)
            if self.share:
                groups[key] = global_id
            self.issued += 1
            out.append((destination, QueryRequest(global_id, request.query)))
        return out

    def retire(self, global_id: int) -> Tuple[Subscriber, ...]:
        """Pop and return the fan-out targets of an answered query."""
        subscribers = self.subscribers(global_id)
        del self._routes[global_id]
        return subscribers

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def pending_ids(self) -> List[int]:
        """Global ids awaiting answers, ascending."""
        return sorted(self._routes)

    def subscribers(self, global_id: int) -> Tuple[Subscriber, ...]:
        """Fan-out targets of a pending query (without retiring it)."""
        try:
            return self._routes[global_id]
        except KeyError:
            raise ProtocolError(
                f"planner received answer for unknown query {global_id}"
            ) from None

    def pending_count(self) -> int:
        return len(self._routes)

    def is_quiescent(self) -> bool:
        return not self._routes

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #

    def state(self) -> Dict[str, object]:
        """Codec-encodable snapshot of the route table, the id counter
        and the ``issued`` / ``saved`` counts, so a recovered catalog
        reports what its uncrashed twin would."""
        return {
            "next_query_id": self._next_query_id,
            "routes": {
                global_id: tuple(subscribers)
                for global_id, subscribers in self._routes.items()
            },
            "issued": self.issued,
            "saved": self.saved,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state` on a fresh planner."""
        self._next_query_id = state["next_query_id"]  # type: ignore[assignment]
        self.issued = state["issued"]  # type: ignore[assignment]
        self.saved = state["saved"]  # type: ignore[assignment]
        self._routes = {
            global_id: tuple(
                (view_name, local_id) for view_name, local_id in subscribers
            )
            for global_id, subscribers in state["routes"].items()  # type: ignore[union-attr]
        }

    def __repr__(self) -> str:
        mode = "shared" if self.share else "independent"
        return (
            f"CompensationPlanner({mode}, pending={len(self._routes)}, "
            f"issued={self.issued}, saved={self.saved})"
        )
