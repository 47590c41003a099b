"""The async transport of the concurrent runtime.

The runtime's actors exchange the ordinary :mod:`repro.messaging`
messages over named, unidirectional channels owned by one
:class:`InMemoryTransport`.  Delivery is reliable and per-channel FIFO —
the paper's messaging assumptions (Section 2) — and a receiver selecting
over several channels sees them merged in (delivery time, send order).

*When* a message is delivered is the transport's one policy, decided at
send time.  Without a :class:`FaultPlan` that is "now": every message is
deliverable the moment it is sent.  With one, each send draws base
latency, seeded jitter and drop-with-retry (each attempt may be lost; the
sender retries after a timeout with exponential backoff until the
message gets through) from the transport's private RNG.  Faults reorder
deliveries *across* channels; within a channel FIFO is preserved by
default (disable ``fifo_per_channel`` to demonstrate what breaks
without it).

Time is **virtual**: the transport carries a logical clock that advances
to each message's delivery time as it is received.  Nothing ever waits on
the wall clock, so a run is a pure function of the actors' behavior and
the fault plan's seed — the same seed replays the identical execution,
which is what makes fault-injection runs debuggable and testable.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.errors import ChannelEmpty, ProtocolError, TransportClosed
from repro.messaging.channel import Sizer, charged_bytes
from repro.messaging.messages import Message
from repro.messaging.wire import WireCodec


class ChannelStats:
    """Per-channel delivery accounting.

    Rendered as the ``ch:<name>`` rows of ``RuntimeResult.metrics_table()``
    and exported as the ``repro_channel_*`` series by ``repro.obs``.
    """

    __slots__ = (
        "name",
        "sent",
        "delivered",
        "sent_bytes",
        "dropped",
        "retries",
        "reordered",
        "max_pending",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.sent = 0
        self.delivered = 0
        self.sent_bytes = 0
        self.dropped = 0
        self.retries = 0
        #: Sends that jumped ahead of an already-queued message on this
        #: channel (only possible with ``fifo_per_channel=False``).
        self.reordered = 0
        self.max_pending = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "bytes": self.sent_bytes,
            "dropped": self.dropped,
            "retries": self.retries,
            "reordered": self.reordered,
            "max_pending": self.max_pending,
        }

    def __repr__(self) -> str:
        return (
            f"ChannelStats({self.name}, sent={self.sent}, "
            f"delivered={self.delivered}, dropped={self.dropped})"
        )


class FaultPlan:
    """Delivery-time policy of :class:`InMemoryTransport` (delays in virtual time).

    Parameters
    ----------
    latency:
        Base delivery delay added to every message.
    jitter:
        Extra uniform-random delay in ``[0, jitter)``; differing draws on
        different channels are what reorder deliveries across channels.
    drop_rate:
        Probability that any single transmission attempt is lost.
    retry_timeout:
        Virtual time the sender waits before retransmitting a lost attempt.
    backoff:
        Multiplier applied to the timeout on each further retry.
    max_retries:
        Deterministic backstop: after this many lost attempts the next
        transmission succeeds, so every run terminates.
    fifo_per_channel:
        When True (default), delivery order within one channel always
        matches send order even when latencies would say otherwise — the
        paper's per-channel FIFO assumption.  Disable to let jitter
        reorder within a channel too (breaks ECA; useful for demos).
    """

    __slots__ = (
        "latency",
        "jitter",
        "drop_rate",
        "retry_timeout",
        "backoff",
        "max_retries",
        "fifo_per_channel",
    )

    def __init__(
        self,
        latency: float = 1.0,
        jitter: float = 0.0,
        drop_rate: float = 0.0,
        retry_timeout: float = 4.0,
        backoff: float = 2.0,
        max_retries: int = 16,
        fifo_per_channel: bool = True,
    ) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError(f"drop_rate must be in [0, 1), got {drop_rate}")
        if latency < 0 or jitter < 0 or retry_timeout < 0:
            raise ValueError("latency, jitter, and retry_timeout must be >= 0")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.latency = latency
        self.jitter = jitter
        self.drop_rate = drop_rate
        self.retry_timeout = retry_timeout
        self.backoff = backoff
        self.max_retries = max_retries
        self.fifo_per_channel = fifo_per_channel

    def __repr__(self) -> str:
        return (
            f"FaultPlan(latency={self.latency}, jitter={self.jitter}, "
            f"drop_rate={self.drop_rate}, fifo={self.fifo_per_channel})"
        )


#: One queued delivery: (deliver_at, global send sequence, message).
_Entry = Tuple[float, int, Message]

#: An aliased name's meaning: the ``(channel, message)`` legs a send becomes.
Route = Callable[[Message], Sequence[Tuple[str, Message]]]


class InMemoryTransport:
    """Named unidirectional channels with awaitable receives (Section 2's message model).

    Channels are created on first use.  Each channel is expected to have a
    single consumer (the runtime wires one inbox per actor); multiple
    producers are fine.  Delivery is per-channel FIFO — the assumption
    every Section 5 correctness proof leans on — and :meth:`now` is
    virtual time, so runs replay deterministically: waiters are woken in
    FIFO order and ties between channels break on the global send
    sequence number.

    ``plan=None`` is the paper's network: reliable and instantaneous.
    With a :class:`FaultPlan`, :meth:`send` — the only place faults exist
    — draws latency, jitter and drop/retry outcomes from a private RNG
    seeded with ``seed``.  Same seed + same send sequence ⇒ same delivery
    schedule.  Reliable delivery is preserved either way: a dropped
    message is retried until delivered, so faults stretch time without
    ever losing messages.

    A channel name can be an :meth:`alias` — how a sharded run lets
    unchanged sources and clients reach their shards directly.
    """

    def __init__(
        self,
        sizer: Optional[Sizer] = None,
        codec: Optional[WireCodec] = None,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
    ) -> None:
        self._queues: Dict[str, Deque[_Entry]] = {}
        self._stats: Dict[str, ChannelStats] = {}
        self._aliases: Dict[str, Route] = {}
        self._waiters: Deque[Tuple[Tuple[str, ...], "asyncio.Future[None]"]] = deque()
        self._sizer = sizer
        self._codec = codec
        self.plan = plan
        self._rng = random.Random(seed)
        #: Last scheduled delivery time per channel (the FIFO clamp).
        self._last_delivery: Dict[str, float] = {}
        self._seq = itertools.count()
        self._clock = 0.0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def alias(self, channel: str, route: Route) -> None:
        """Make ``channel`` a name for wherever ``route`` sends each message.

        A :meth:`send` on it sends every ``(target, message)`` pair
        ``route(message)`` returns on ``target`` — charged, fault-delayed
        and FIFO-clamped there — and nothing under ``channel`` itself.
        """
        self._aliases[channel] = route

    async def send(self, channel: str, message: Message) -> None:
        """Queue ``message`` for delivery on ``channel``."""
        if self._closed:
            raise TransportClosed(f"send on closed transport (channel {channel!r})")
        route = self._aliases.get(channel)
        if route is None:
            self._enqueue(channel, message)
        else:
            for target, routed in route(message):
                self._enqueue(target, routed)

    def _enqueue(self, channel: str, message: Message) -> None:
        queue = self._queues.setdefault(channel, deque())
        stats = self._stats.setdefault(channel, ChannelStats(channel))
        deliver_at = self._clock
        plan = self.plan
        if plan is not None:
            delay = plan.latency
            if plan.jitter:
                delay += self._rng.uniform(0.0, plan.jitter)
            # Each attempt may be dropped; the sender retries after a
            # timeout that backs off exponentially.  max_retries bounds the
            # loop so the schedule (and the run) always terminates.
            drops = 0
            timeout = plan.retry_timeout
            while drops < plan.max_retries and self._rng.random() < plan.drop_rate:
                delay += timeout
                timeout *= plan.backoff
                drops += 1
            stats.dropped += drops
            stats.retries += drops
            deliver_at += delay
            if plan.fifo_per_channel:
                deliver_at = max(deliver_at, self._last_delivery.get(channel, 0.0))
            self._last_delivery[channel] = deliver_at
        entry = (deliver_at, next(self._seq), message)
        # Keep each queue sorted by (deliver_at, seq).  Reliable and
        # FIFO-clamped sends arrive with non-decreasing times, so this is
        # an O(1) append; only a non-FIFO fault plan ever inserts earlier.
        position = len(queue)
        while position > 0 and queue[position - 1][:2] > entry[:2]:
            position -= 1
        if position < len(queue):
            stats.reordered += 1
        queue.insert(position, entry)
        stats.sent += 1
        stats.sent_bytes += charged_bytes(message, self._sizer, self._codec)
        stats.max_pending = max(stats.max_pending, len(queue))
        self._wake(channel)

    def _wake(self, channel: str) -> None:
        for channels, future in self._waiters:
            if not future.done() and channel in channels:
                future.set_result(None)
                return

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def _head(self, channel: str) -> Optional[_Entry]:
        queue = self._queues.get(channel)
        return queue[0] if queue else None

    def receive_nowait(self, channel: str) -> Message:
        """Deliver the next message, or raise :class:`ChannelEmpty`."""
        if self._head(channel) is None:
            raise ChannelEmpty(f"receive on empty channel {channel!r}")
        return self._pop(channel)

    def peek_nowait(self, channel: str) -> Optional[Message]:
        """The next message *iff* it is deliverable now, else ``None``.

        "Now" is the current virtual clock: a message still in flight
        under a fault plan's latency is invisible, so update batching
        coalesces only notifications that have actually arrived.
        """
        head = self._head(channel)
        if head is None or head[0] > self._clock:
            return None
        return head[2]

    def _pop(self, channel: str) -> Message:
        deliver_at, _, message = self._queues[channel].popleft()
        self._clock = max(self._clock, deliver_at)
        self._stats[channel].delivered += 1
        return message

    async def recv_any(self, channels: Sequence[str]) -> Tuple[str, Message]:
        """Wait for the earliest deliverable message on any of ``channels``.

        "Earliest" means smallest (delivery time, send sequence), so a
        receiver with several inboxes sees exactly the interleaving the
        transport's latencies induce.  Raises :class:`TransportClosed`
        once the transport is closed and the channels are drained.
        """
        wanted = tuple(channels)
        if not wanted:
            raise ProtocolError("recv_any needs at least one channel")
        while True:
            best: Optional[str] = None
            best_key: Optional[Tuple[float, int]] = None
            for channel in wanted:
                head = self._head(channel)
                if head is None:
                    continue
                key = (head[0], head[1])
                if best_key is None or key < best_key:
                    best, best_key = channel, key
            if best is not None:
                return best, self._pop(best)
            if self._closed:
                raise TransportClosed(
                    f"transport closed with nothing pending on {wanted!r}"
                )
            future: "asyncio.Future[None]" = (
                asyncio.get_running_loop().create_future()
            )
            self._waiters.append((wanted, future))
            try:
                await future
            finally:
                self._waiters.remove((wanted, future))

    async def recv(self, channel: str) -> Message:
        """Wait for the next message on one channel."""
        _, message = await self.recv_any((channel,))
        return message

    # ------------------------------------------------------------------ #
    # Introspection and lifecycle
    # ------------------------------------------------------------------ #

    def total_pending(self) -> int:
        """Messages queued on every channel together (the quiescence test)."""
        return sum(len(queue) for queue in self._queues.values())

    def now(self) -> float:
        """Current virtual time."""
        return self._clock

    def stats(self) -> Dict[str, ChannelStats]:
        """Per-channel accounting, keyed by channel name."""
        return dict(self._stats)

    def close(self) -> None:
        """Shut down: pending and future receives raise TransportClosed."""
        self._closed = True
        for _, future in self._waiters:
            if not future.done():
                future.set_exception(
                    TransportClosed("transport closed while waiting")
                )

    def __repr__(self) -> str:
        return (
            f"InMemoryTransport(channels={len(self._queues)}, "
            f"pending={self.total_pending()}, t={self._clock:g}, plan={self.plan!r})"
        )
