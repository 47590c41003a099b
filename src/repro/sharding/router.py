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
- a :class:`~repro.messaging.messages.QueryAnswer` carries the id its
  source saw, ``local id * plan.shards + shard``
  (:meth:`~repro.runtime.actors.WarehouseUnit.wire_id`): one ``divmod``
  names the owning shard and restores its local id;
- a :class:`~repro.messaging.messages.RefreshRequest` fans to every
  populated shard (each shard flushes its own deferred work).

Queries never pass through here: a shard sends them straight to the
owning source, as the unsharded warehouse does, numbered from its own
slice of the one query-id space.  The router therefore keeps nothing per
query, and a crashed shard needs nothing from it: the recovered
incarnation re-issues under the same ids, consumes whichever answer
arrives first and drops the other as a duplicate — the unsharded
recovery protocol, unchanged.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Observability

from repro.errors import ProtocolError, TransportClosed
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    RefreshRequest,
    UpdateNotification,
)
from repro.runtime.actors import ActorMetrics, warehouse_inbox
from repro.runtime.transport import InMemoryTransport
from repro.sharding.plan import ShardPlan


def shard_channel(origin: str, shard: int) -> str:
    """Channel carrying ``origin``'s traffic from the router to a shard.

    One channel per (origin, shard) pair keeps per-source FIFO intact
    through the router while letting different shards drain the same
    source's stream independently.
    """
    return f"{origin}=>shard{shard}"


class ShardRouter:
    """Fans external traffic to the shards; holds no per-query state.

    Parameters
    ----------
    transport:
        The run's shared transport.
    plan:
        The run's :class:`~repro.sharding.plan.ShardPlan`: its interest
        map routes updates, its populated shard ids receive refreshes,
        and its shard count is the stride of the query-id space.
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
        plan: ShardPlan,
        source_names: Sequence[str],
        client_names: Sequence[str] = (),
        shard_obs: Optional[Mapping[int, "Observability"]] = None,
    ) -> None:
        self.transport = transport
        self.interest = plan.interest
        self.shards = plan.shards
        self.shard_ids = plan.shard_ids
        self.metrics = ActorMetrics("router", "router")
        self.metrics.declare(
            "updates_routed",
            "answers_routed",
            "refreshes_routed",
            "updates_unroutable",
        )
        self._shard_obs = dict(shard_obs or {})
        #: external inbox -> the source or client behind it.
        self._external = {
            warehouse_inbox(name): name for name in (*source_names, *client_names)
        }
        self.inboxes = tuple(self._external)

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
            await self._route(self._external[channel], message)
            # One routing decision per scheduling slice, like every other
            # actor, so shards interleave between router steps.
            await asyncio.sleep(0)

    async def _route(self, origin: str, message: Message) -> None:
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
            local_id, shard = divmod(message.query_id, self.shards)
            if shard not in self.shard_ids:
                # No unit numbers its queries from this slice, so no shard
                # asked: the id was damaged or invented on the way.
                raise ProtocolError(
                    f"answer to query id {message.query_id} from {origin!r} "
                    f"belongs to shard {shard}, which is not populated "
                    f"(populated: {list(self.shard_ids)})"
                )
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

    async def _forward(self, channel: str, message: Message) -> None:
        self.metrics.sent += 1
        await self.transport.send(channel, message)

    def __repr__(self) -> str:
        return f"ShardRouter(shards={list(self.shard_ids)!r} of {self.shards})"
