"""The shard router: one actor between the outside world and the shards.

Sources and clients are completely unchanged by sharding — they keep
sending on the ``"{name}->wh"`` channels and receiving on
``"wh->{name}"``.  The router owns those warehouse-side inboxes and fans
traffic to the per-shard actors:

- an :class:`~repro.messaging.messages.UpdateNotification` is forwarded
  to every shard whose views involve the updated relation (the plan's
  interest map), on the per-``(origin, shard)`` channel — so per-source
  FIFO survives the extra hop, which is the delivery assumption every
  Section 5 correctness argument leans on;
- a :class:`~repro.messaging.messages.QueryAnswer` carries a *global*
  query id; the route table maps it back to ``(shard, local id)`` and
  the answer travels to the owning shard with its local id restored;
- a :class:`~repro.messaging.messages.RefreshRequest` fans to every
  populated shard (each shard flushes its own deferred work);
- a :class:`~repro.messaging.messages.ShardEnvelope` coming *from* a
  shard gets a fresh global id, a route-table entry, and goes out to the
  destination source as an ordinary request — the same id-multiplexing a
  :class:`~repro.warehouse.catalog.WarehouseCatalog` performs for its
  member views, lifted one level up.

Crash handling: when a shard dies, the harness's restart closure calls
:meth:`ShardRouter.invalidate_shard` *before* the recovered incarnation
re-issues its pending queries.  Answers to pre-crash global ids then die
at the router (``stale_answers_dropped``) instead of reaching a shard
that re-issued under new ids; answers the router had already translated
and forwarded are handled by the shard's own duplicate-answer dedup,
exactly as in the unsharded recovery protocol.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Observability

from repro.errors import ProtocolError, TransportClosed
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    ShardEnvelope,
    UpdateNotification,
)
from repro.runtime.actors import ActorMetrics, warehouse_inbox
from repro.runtime.actors import source_inbox as _source_inbox
from repro.runtime.transport import InMemoryTransport


def shard_channel(origin: str, shard: int) -> str:
    """Channel carrying ``origin``'s traffic from the router to a shard.

    One channel per (origin, shard) pair keeps per-source FIFO intact
    through the router while letting different shards drain the same
    source's stream independently.
    """
    return f"{origin}=>shard{shard}"


def router_request_channel(shard: int) -> str:
    """Channel carrying a shard's outgoing query envelopes to the router."""
    return f"shard{shard}=>rt"


class ShardRouter:
    """Fans external traffic to shards and multiplexes their queries out.

    Parameters
    ----------
    transport:
        The run's shared transport.
    interest:
        ``relation -> shard ids`` from the :class:`~repro.sharding.plan.ShardPlan`.
    shard_ids:
        Populated shards, ascending.
    source_names, client_names:
        The external actors whose ``"{name}->wh"`` inboxes this router owns.
    shard_obs:
        Optional ``shard id -> Observability`` shard views; forwarding an
        update marks it *executed* on the receiving shard's staleness
        tracker (the per-shard staleness basis).
    """

    def __init__(
        self,
        transport: InMemoryTransport,
        interest: Mapping[str, Tuple[int, ...]],
        shard_ids: Sequence[int],
        source_names: Sequence[str],
        client_names: Sequence[str] = (),
        shard_obs: Optional[Mapping[int, "Observability"]] = None,
    ) -> None:
        self.transport = transport
        self.interest = dict(interest)
        self.shard_ids = tuple(shard_ids)
        self.metrics = ActorMetrics("router", "router")
        self.metrics.declare(
            "updates_routed",
            "answers_routed",
            "queries_routed",
            "refreshes_routed",
            "stale_answers_dropped",
            "updates_unroutable",
        )
        self._shard_obs = dict(shard_obs or {})
        #: global query id -> (shard, that shard's local query id).
        self._routes: Dict[int, Tuple[int, int]] = {}
        self._next_query_id = 1
        #: external inbox -> the source or client behind it.
        self._external = {
            warehouse_inbox(name): name for name in (*source_names, *client_names)
        }
        self._from_shards = {
            router_request_channel(shard): shard for shard in self.shard_ids
        }
        self.inboxes = tuple(self._external) + tuple(self._from_shards)

    # ------------------------------------------------------------------ #
    # The routing loop
    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        while True:
            try:
                channel, message = await self.transport.recv_any(self.inboxes)
            except TransportClosed:
                return
            self.metrics.received += 1
            shard = self._from_shards.get(channel)
            if shard is not None:
                await self._route_envelope(shard, message)
            else:
                await self._route_inbound(self._external[channel], message)
            # One routing decision per scheduling slice, like every other
            # actor, so shards interleave between router steps.
            await asyncio.sleep(0)

    async def _route_inbound(self, origin: str, message: Message) -> None:
        if isinstance(message, UpdateNotification):
            shards = self.interest.get(message.update.relation, ())
            if not shards:
                self.metrics.bump("updates_unroutable")
                return
            for shard in shards:
                obs = self._shard_obs.get(shard)
                if obs is not None:
                    obs.update_routed(message.serial)
                await self._forward(shard_channel(origin, shard), message)
            self.metrics.bump("updates_routed")
        elif isinstance(message, QueryAnswer):
            route = self._routes.pop(message.query_id, None)
            if route is None:
                # A pre-crash answer whose route was invalidated when its
                # shard recovered and re-issued under a new global id.
                self.metrics.bump("stale_answers_dropped")
                return
            shard, local_id = route
            await self._forward(
                shard_channel(origin, shard),
                QueryAnswer(local_id, message.answer),
            )
            self.metrics.bump("answers_routed")
        elif isinstance(message, RefreshRequest):
            for shard in self.shard_ids:
                await self._forward(shard_channel(origin, shard), message)
            self.metrics.bump("refreshes_routed")
        else:
            raise ProtocolError(f"router received {message!r} from {origin!r}")

    async def _route_envelope(self, shard: int, message: Message) -> None:
        if not isinstance(message, ShardEnvelope):
            raise ProtocolError(f"router received {message!r} from shard {shard}")
        global_id = self._next_query_id
        self._next_query_id += 1
        self._routes[global_id] = (shard, message.request.query_id)
        await self._forward(
            _source_inbox(message.destination),
            QueryRequest(global_id, message.request.query),
        )
        self.metrics.bump("queries_routed")

    async def _forward(self, channel: str, message: Message) -> None:
        self.metrics.sent += 1
        await self.transport.send(channel, message)

    # ------------------------------------------------------------------ #
    # Crash support
    # ------------------------------------------------------------------ #

    def invalidate_shard(self, shard: int) -> int:
        """Drop every route owned by a crashed shard; returns the count.

        Called synchronously from the restart closure, before the
        recovered shard re-issues, so a late answer to a dead global id
        can never be translated into the new incarnation's id space.
        """
        dead = [gid for gid, (owner, _) in self._routes.items() if owner == shard]
        for gid in dead:
            del self._routes[gid]
        if dead:
            self.metrics.bump("routes_invalidated", len(dead))
        return len(dead)

    @property
    def pending_routes(self) -> int:
        """Outstanding global query ids (introspection/tests)."""
        return len(self._routes)

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={list(self.shard_ids)!r}, "
            f"routes={len(self._routes)})"
        )
