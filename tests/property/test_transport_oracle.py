"""``InMemoryTransport`` delivers exactly what the scan-everything transport does.

The transport appends without a fault plan, compares queue heads
directly and wakes a channel's one receiver through a channel -> future
map; :mod:`reference_transport` keeps the sorted insert, the key per
head and the FIFO walk over every waiter.  Seeded scripts of plain and
aliased sends, receivers that each take a few messages with
``recv_any`` over a channel subset (tasks that block and are woken by a
later send),
``peek_nowait``, ``receive_nowait``, yields and ``close`` drive both
under four delivery policies; the delivery log, the clock, what is left
pending and every ``ChannelStats`` field must agree.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from reference_transport import ReferenceTransport
from repro.errors import ChannelEmpty, TransportClosed
from repro.messaging.messages import UpdateNotification
from repro.runtime.transport import FaultPlan, InMemoryTransport
from repro.source.updates import insert

CHANNELS = ("a", "b", "c", "d")
ALIAS = "fan"

PLANS = {
    "reliable": None,
    "zero-delay": FaultPlan(latency=0.0, jitter=0.0, drop_rate=0.0),
    "jitter-drops": FaultPlan(latency=1.0, jitter=6.0, drop_rate=0.3, retry_timeout=2.0),
    "non-fifo": FaultPlan(latency=1.0, jitter=8.0, fifo_per_channel=False),
}

SEEDS = range(60)


def note(serial: int) -> UpdateNotification:
    return UpdateNotification(insert("r", (serial,)), serial)


def fan(message):
    """The alias's route: nowhere, one channel, or two, by serial."""
    legs = ((), ("a",), ("b", "c"))[message.serial % 3]
    return [(channel, message) for channel in legs]


def script(seed: int, length: int = 80):
    rng = random.Random(seed)
    ops = []
    for serial in range(1, length + 1):
        roll = rng.random()
        if roll < 0.4:
            ops.append(("send", rng.choice(CHANNELS + (ALIAS,)), serial))
        elif roll < 0.6:
            subset = tuple(rng.sample(CHANNELS, rng.randint(1, 3)))
            ops.append(("recv", subset, rng.randint(1, 4)))
        elif roll < 0.7:
            ops.append(("peek", rng.choice(CHANNELS)))
        elif roll < 0.8:
            ops.append(("take", rng.choice(CHANNELS)))
        elif roll < 0.995:
            ops.append(("turn",))
        else:
            ops.append(("close",))
    return ops


async def drive(transport, ops):
    """Run ``ops`` against ``transport``; return everything observable."""
    transport.alias(ALIAS, fan)
    log = []
    receivers = []

    async def receive(tag, subset, count):
        for _ in range(count):
            try:
                channel, message = await transport.recv_any(subset)
            except TransportClosed:
                log.append(("recv closed", tag))
                return
            log.append(("recv", tag, channel, message.serial, transport.now()))

    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "send":
            try:
                transport.send(op[1], note(op[2]))
            except TransportClosed:
                log.append(("send closed", tag))
        elif kind == "recv":
            # One consumer per channel: start a receiver only on channels
            # no unfinished receiver holds.
            held = {c for subset, task in receivers if not task.done() for c in subset}
            if held.isdisjoint(op[1]):
                task = asyncio.ensure_future(receive(tag, *op[1:]))
                receivers.append((op[1], task))
        elif kind == "peek":
            message = transport.peek_nowait(op[1])
            log.append(("peek", tag, None if message is None else message.serial))
        elif kind == "take":
            try:
                message = transport.receive_nowait(op[1])
            except ChannelEmpty:
                log.append(("empty", tag))
            else:
                log.append(("take", tag, message.serial, transport.now()))
        elif kind == "turn":
            await asyncio.sleep(0)
        else:
            transport.close()
    transport.close()
    await asyncio.gather(*(task for _, task in receivers))
    stats = [(name, s.name, s.as_dict()) for name, s in transport.stats().items()]
    return log, transport.now(), transport.total_pending(), stats


@pytest.mark.parametrize("policy", sorted(PLANS))
def test_the_transport_delivers_what_the_reference_does(policy):
    plan = PLANS[policy]
    woken = 0
    for seed in SEEDS:
        ops = script(seed)
        reference = ReferenceTransport(sizer=lambda m: m.serial % 7, plan=plan, seed=seed)
        transport = InMemoryTransport(sizer=lambda m: m.serial % 7, plan=plan, seed=seed)
        expected = asyncio.run(drive(reference, ops))
        assert asyncio.run(drive(transport, ops)) == expected, f"{policy}, seed {seed}"
        woken += reference.woken
    # Non-vacuous: most scripts had a blocked receiver woken by a send.
    assert woken > len(SEEDS)
