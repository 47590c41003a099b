"""The scan-everything transport, kept as the oracle for ``InMemoryTransport``.

Every send sorted-inserts its entry (even without a fault plan),
``recv_any`` builds a ``(deliver_at, seq)`` key per head, and a send
walks every waiting receiver in FIFO order to wake the first that waits
on its channel.  ``repro.runtime.transport.InMemoryTransport`` must
deliver exactly what this does: same messages in the same order, same
clock, same ``ChannelStats``.  It shares ``ChannelStats`` and
``FaultPlan`` (plain records) and nothing else.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque

from repro.errors import ChannelEmpty, ProtocolError, TransportClosed
from repro.messaging.channel import charged_bytes
from repro.runtime.transport import ChannelStats


class ReferenceTransport:
    def __init__(self, sizer=None, plan=None, seed=0):
        self._queues, self._stats, self._aliases = {}, {}, {}
        self._waiters = deque()
        self._sizer, self.plan = sizer, plan
        self._rng = random.Random(seed)
        self._last_delivery = {}
        self._seq = itertools.count()
        self._clock = 0.0
        self._closed = False
        #: Sends that woke a waiting receiver (how much the waiter walk ran).
        self.woken = 0

    def alias(self, channel, route):
        self._aliases[channel] = route

    def send(self, channel, message):
        if self._closed:
            raise TransportClosed(channel)
        route = self._aliases.get(channel)
        legs = [(channel, message)] if route is None else route(message)
        for target, routed in legs:
            self._enqueue(target, routed)

    def _enqueue(self, channel, message):
        queue = self._queues.setdefault(channel, deque())
        stats = self._stats.setdefault(channel, ChannelStats(channel))
        deliver_at, plan = self._clock, self.plan
        if plan is not None:
            delay = plan.latency
            if plan.jitter:
                delay += self._rng.uniform(0.0, plan.jitter)
            drops, timeout = 0, plan.retry_timeout
            while drops < plan.max_retries and self._rng.random() < plan.drop_rate:
                delay, timeout, drops = delay + timeout, timeout * plan.backoff, drops + 1
            stats.dropped += drops
            stats.retries += drops
            deliver_at += delay
            if plan.fifo_per_channel:
                deliver_at = max(deliver_at, self._last_delivery.get(channel, 0.0))
            self._last_delivery[channel] = deliver_at
        entry = (deliver_at, next(self._seq), message)
        position = len(queue)
        while position > 0 and queue[position - 1][:2] > entry[:2]:
            position -= 1
        if position < len(queue):
            stats.reordered += 1
        queue.insert(position, entry)
        stats.sent += 1
        stats.sent_bytes += charged_bytes(message, self._sizer, None)
        stats.max_pending = max(stats.max_pending, len(queue))
        for channels, future in self._waiters:
            if not future.done() and channel in channels:
                future.set_result(None)
                self.woken += 1
                return

    def _head(self, channel):
        queue = self._queues.get(channel)
        return queue[0] if queue else None

    def receive_nowait(self, channel):
        if self._head(channel) is None:
            raise ChannelEmpty(channel)
        return self._pop(channel)

    def peek_nowait(self, channel):
        head = self._head(channel)
        return None if head is None or head[0] > self._clock else head[2]

    def _pop(self, channel):
        deliver_at, _, message = self._queues[channel].popleft()
        self._clock = max(self._clock, deliver_at)
        self._stats[channel].delivered += 1
        return message

    async def recv_any(self, channels):
        wanted = tuple(channels)
        if not wanted:
            raise ProtocolError("recv_any needs at least one channel")
        while True:
            keyed = [
                ((head[0], head[1]), channel)
                for channel in wanted
                if (head := self._head(channel)) is not None
            ]
            if keyed:
                best = min(keyed)[1]
                return best, self._pop(best)
            if self._closed:
                raise TransportClosed(wanted)
            future = asyncio.get_running_loop().create_future()
            self._waiters.append((wanted, future))
            try:
                await future
            finally:
                self._waiters.remove((wanted, future))

    def total_pending(self):
        return sum(len(queue) for queue in self._queues.values())

    def now(self):
        return self._clock

    def stats(self):
        return dict(self._stats)

    def close(self):
        self._closed = True
        for _, future in self._waiters:
            if not future.done():
                future.set_exception(TransportClosed("closed while waiting"))
