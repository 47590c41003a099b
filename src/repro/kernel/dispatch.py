"""Atomic event dispatch: the one place messages meet algorithms.

Every execution path — the synchronous kernel, the asyncio warehouse
actor, and WAL replay during recovery — feeds incoming messages through
:func:`dispatch_event`.  It classifies the message (``W_up`` / ``W_ans``
/ ``W_ref``), invokes the matching routed protocol method, and renders
the canonical trace detail string, so identical executions produce
identical traces regardless of which kernel ran them.

Routing helpers live here too: :func:`resolve_destination` maps an
owner-routed (``destination=None``) request to the single source owning
the relations it reads (:func:`~repro.core.protocol.query_owner`, which
the answer gate also checks against).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.protocol import WarehouseAlgorithm, query_owner
from repro.errors import ProtocolError
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.simulation.trace import W_ANS, W_REF, W_UP
from repro.source.base import Source

#: What dispatch returns: the trace kind, the detail string and the routed
#: ``(destination, request)`` pairs the algorithm emitted.
DispatchResult = Tuple[str, str, List[Tuple[Optional[str], QueryRequest]]]


def event_kind(message: Message) -> str:
    """The warehouse trace kind this message produces when dispatched."""
    if isinstance(message, UpdateNotification):
        return W_UP
    if isinstance(message, UpdateBatch):
        # A coalesced run of updates is still one W_up event.
        return W_UP
    if isinstance(message, QueryAnswer):
        return W_ANS
    if isinstance(message, RefreshRequest):
        return W_REF
    raise ProtocolError(f"warehouse received unknown message: {message!r}")


def coalesce_updates(
    first: UpdateNotification,
    limit: int,
    peek: Callable[[], Optional[Message]],
    receive: Callable[[], Message],
) -> List[UpdateNotification]:
    """``first`` plus the run of notifications queued right behind it.

    At most ``limit`` members from the head of the one inbox ``peek`` /
    ``receive`` read, never waiting for more — that would trade the
    paper's immediacy for batching.  For kernels whose limit exceeds 1.
    """
    members = [first]
    while len(members) < limit and isinstance(peek(), UpdateNotification):
        members.append(receive())
    return members


def warehouse_action(sender: str, message: Message) -> str:
    """The kernel action string of the event that consumed ``message``.

    ``warehouse:<sender>``, or ``warehouse:<sender>@<k>`` for a coalesced
    batch so conformance replay reproduces that exact coalescing decision.
    """
    if isinstance(message, UpdateBatch):
        return f"warehouse:{sender}@{len(message)}"
    return f"warehouse:{sender}"


def validate_routed(
    algorithm: WarehouseAlgorithm,
    method: str,
    routed: List[Tuple[Optional[str], QueryRequest]],
) -> List[Tuple[Optional[str], QueryRequest]]:
    """Reject protocol violations before they reach a channel.

    Every kernel unpacks routed results as ``(destination, request)``
    pairs; an algorithm returning bare :class:`QueryRequest` objects
    would otherwise surface as an opaque unpacking ``TypeError`` deep in
    the kernel loop.  Failing here names the algorithm, the method, and
    the offending value instead.
    """
    name = getattr(algorithm, "name", type(algorithm).__name__)
    for item in routed:
        if isinstance(item, QueryRequest):
            raise ProtocolError(
                f"algorithm {name!r}: {method} returned a bare QueryRequest "
                f"(query_id={item.query_id}); the routed protocol requires "
                f"(destination, request) pairs — use destination=None for "
                f"owner routing"
            )
        if not (isinstance(item, tuple) and len(item) == 2):
            raise ProtocolError(
                f"algorithm {name!r}: {method} returned {item!r}; the "
                f"routed protocol requires (destination, request) pairs"
            )
        destination, request = item
        if destination is not None and not isinstance(destination, str):
            raise ProtocolError(
                f"algorithm {name!r}: {method} routed a request to "
                f"{destination!r}; destinations are source names (str) or "
                f"None for owner routing"
            )
        if not isinstance(request, QueryRequest):
            raise ProtocolError(
                f"algorithm {name!r}: {method} routed {request!r}; only "
                f"QueryRequest messages may be sent to sources"
            )
    return routed


def dispatch_event(
    algorithm: WarehouseAlgorithm,
    origin: Optional[str],
    message: Message,
) -> DispatchResult:
    """Process one atomic warehouse event through the routed protocol.

    ``origin`` is the source the message arrived from (``None`` for
    client channels — legal only for refresh requests).
    """
    kind = event_kind(message)
    if isinstance(message, UpdateNotification):
        if origin is None:
            raise ProtocolError("update notification arrived on a client channel")
        routed = validate_routed(
            algorithm, "on_update", list(algorithm.on_update(origin, message))
        )
        detail = f"U{message.serial} from {origin}, {len(routed)} query(ies)"
    elif isinstance(message, UpdateBatch):
        if origin is None:
            raise ProtocolError("update batch arrived on a client channel")
        routed = validate_routed(
            algorithm,
            "on_update_batch",
            list(algorithm.on_update_batch(origin, message)),
        )
        span = f"U{message.first_serial}..U{message.serial} (k={len(message)})"
        detail = f"{span} from {origin}, {len(routed)} query(ies)"
    elif isinstance(message, QueryAnswer):
        if origin is None:
            raise ProtocolError("query answer arrived on a client channel")
        routed = validate_routed(
            algorithm, "on_answer", list(algorithm.on_answer(origin, message))
        )
        detail = f"A(Q{message.query_id}) from {origin}, {len(routed)} follow-up(s)"
    elif isinstance(message, RefreshRequest):
        routed = validate_routed(
            algorithm, "on_refresh", list(algorithm.on_refresh())
        )
        detail = (
            f"refresh #{message.serial} processed, {len(routed)} query(ies) sent"
        )
    else:  # pragma: no cover - event_kind already rejected it
        raise ProtocolError(f"warehouse received unknown message: {message!r}")
    return kind, detail, routed


def resolve_destination(
    destination: Optional[str],
    request: QueryRequest,
    owners: Mapping[str, str],
    sole: Optional[str] = None,
) -> str:
    """Resolve an owner-routed (``None``) destination to a source name."""
    if destination is not None:
        return destination
    if sole is not None:
        return sole
    return query_owner(request.query, owners)


def receive_query_request(name: str, message: Message) -> QueryRequest:
    """Validate that a source-inbox message is a query request."""
    if not isinstance(message, QueryRequest):
        raise ProtocolError(f"source {name} received {message!r}")
    return message


def is_duplicate_answer(algorithm: WarehouseAlgorithm, message: Message) -> bool:
    """An answer whose query id is no longer pending (post-recovery race)."""
    return (
        isinstance(message, QueryAnswer)
        and message.query_id not in algorithm.pending_query_ids()
    )


def relation_owners(sources: Mapping[str, Source]) -> Dict[str, str]:
    """Map each relation to its owning source; reject shared relations."""
    from repro.errors import SimulationError

    owners: Dict[str, str] = {}
    for name, source in sources.items():
        for schema in source.schemas:
            if schema.name in owners:
                raise SimulationError(
                    f"relation {schema.name!r} owned by two sources"
                )
            owners[schema.name] = name
    return owners
