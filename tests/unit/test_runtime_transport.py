"""Unit tests for the runtime's async transport, reliable and under a fault plan."""

import asyncio

import pytest

from repro.errors import ChannelEmpty, TransportClosed
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.runtime.transport import FaultPlan, InMemoryTransport
from repro.source.updates import insert


def note(serial: int) -> UpdateNotification:
    return UpdateNotification(insert("r", (serial,)), serial)


def run(coro):
    return asyncio.run(coro)


class TestInMemoryTransport:
    def test_fifo_per_channel(self):
        async def scenario():
            t = InMemoryTransport()
            for i in range(1, 4):
                await t.send("a", note(i))
            return [(await t.recv("a")).serial for _ in range(3)]

        assert run(scenario()) == [1, 2, 3]

    def test_recv_any_merges_in_send_order(self):
        async def scenario():
            t = InMemoryTransport()
            await t.send("a", note(1))
            await t.send("b", note(2))
            await t.send("a", note(3))
            out = []
            for _ in range(3):
                channel, message = await t.recv_any(("a", "b"))
                out.append((channel, message.serial))
            return out

        assert run(scenario()) == [("a", 1), ("b", 2), ("a", 3)]

    def test_recv_blocks_until_send(self):
        async def scenario():
            t = InMemoryTransport()

            async def producer():
                await asyncio.sleep(0)
                await t.send("a", note(7))

            task = asyncio.ensure_future(producer())
            message = await t.recv("a")
            await task
            return message.serial

        assert run(scenario()) == 7

    def test_receive_nowait_raises_channel_empty(self):
        t = InMemoryTransport()
        with pytest.raises(ChannelEmpty):
            t.receive_nowait("a")

    def test_close_unblocks_waiters(self):
        async def scenario():
            t = InMemoryTransport()

            async def closer():
                await asyncio.sleep(0)
                t.close()

            task = asyncio.ensure_future(closer())
            with pytest.raises(TransportClosed):
                await t.recv("a")
            await task

        run(scenario())

    def test_close_drains_before_raising(self):
        async def scenario():
            t = InMemoryTransport()
            await t.send("a", note(1))
            t.close()
            message = await t.recv("a")  # still deliverable
            with pytest.raises(TransportClosed):
                await t.recv("a")
            return message.serial

        assert run(scenario()) == 1

    def test_send_after_close_raises(self):
        async def scenario():
            t = InMemoryTransport()
            t.close()
            with pytest.raises(TransportClosed):
                await t.send("a", note(1))

        run(scenario())

    def test_stats_and_sizer(self):
        async def scenario():
            t = InMemoryTransport(
                sizer=lambda m: m.answer.total_count() * 4
                if isinstance(m, QueryAnswer)
                else 0
            )
            await t.send("a", note(1))
            await t.send("a", QueryAnswer(1, SignedBag.from_rows([(1,), (2,)])))
            await t.recv("a")
            return t.stats()["a"]

        stats = run(scenario())
        assert stats.sent == 2
        assert stats.delivered == 1
        assert stats.sent_bytes == 8
        assert stats.max_pending == 2


class TestFaultyTransport:
    def test_jitter_reorders_across_channels_not_within(self):
        async def scenario():
            t = InMemoryTransport(plan=FaultPlan(latency=1.0, jitter=10.0), seed=3)
            for i in range(1, 5):
                await t.send("a" if i % 2 else "b", note(i))
            out = []
            for _ in range(4):
                channel, message = await t.recv_any(("a", "b"))
                out.append((channel, message.serial))
            return out

        out = run(scenario())
        # Per-channel FIFO always holds ...
        assert [s for c, s in out if c == "a"] == sorted(
            s for c, s in out if c == "a"
        )
        assert [s for c, s in out if c == "b"] == sorted(
            s for c, s in out if c == "b"
        )

    def test_non_fifo_plan_can_reorder_within_channel(self):
        async def scenario(seed):
            plan = FaultPlan(latency=1.0, jitter=50.0, fifo_per_channel=False)
            t = InMemoryTransport(plan=plan, seed=seed)
            for i in range(1, 9):
                await t.send("a", note(i))
            return [(await t.recv("a")).serial for _ in range(8)]

        reordered = [run(scenario(seed)) for seed in range(8)]
        assert any(serials != sorted(serials) for serials in reordered)

    def test_drops_add_delay_and_are_counted(self):
        async def scenario():
            plan = FaultPlan(latency=1.0, drop_rate=0.7, retry_timeout=5.0)
            t = InMemoryTransport(plan=plan, seed=1)
            for i in range(1, 21):
                await t.send("a", note(i))
            for _ in range(20):
                await t.recv("a")
            return t.stats()["a"], t.now()

        stats, now = run(scenario())
        assert stats.dropped > 0
        assert stats.retries == stats.dropped
        assert stats.delivered == 20
        assert now > 20 * 1.0  # retries pushed the virtual clock out

    def test_deterministic_schedule_under_fixed_seed(self):
        async def scenario():
            plan = FaultPlan(latency=1.0, jitter=4.0, drop_rate=0.4)
            t = InMemoryTransport(plan=plan, seed=9)
            for i in range(1, 13):
                await t.send("a" if i % 3 else "b", note(i))
            out = []
            for _ in range(12):
                channel, message = await t.recv_any(("a", "b"))
                out.append((channel, message.serial, t.now()))
            return out

        schedule = run(scenario())
        assert schedule == run(scenario())
        # The draw order is part of the contract (jitter first, then one
        # draw per attempt): a seed keeps meaning the same schedule.
        pinned = [schedule[0], schedule[1], schedule[-1]]
        assert [(c, s, round(at, 6)) for c, s, at in pinned] == [
            ("b", 3, 8.593192),
            ("b", 6, 13.628629),
            ("a", 11, 29.35085),
        ]

    def test_virtual_clock_is_monotone(self):
        async def scenario():
            t = InMemoryTransport(plan=FaultPlan(latency=2.0, jitter=7.0), seed=5)
            times = []
            for i in range(1, 10):
                await t.send("a" if i % 2 else "b", note(i))
            for _ in range(9):
                await t.recv_any(("a", "b"))
                times.append(t.now())
            return times

        times = run(scenario())
        assert times == sorted(times)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(latency=-1)
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-2)


class TestAliasedChannels:
    """``alias``: a name that stands for the channels a route returns."""

    @staticmethod
    def fan_out(message):
        # Odd serials go to both targets, even ones to "x" only, 0 nowhere.
        if message.serial == 0:
            return []
        targets = ("x", "y") if message.serial % 2 else ("x",)
        return [(target, message) for target in targets]

    def test_faults_fifo_and_charges_apply_per_target(self):
        async def scenario():
            t = InMemoryTransport(
                sizer=lambda m: 10,
                plan=FaultPlan(latency=1.0, jitter=25.0, drop_rate=0.3),
                seed=11,
            )
            t.alias("in", self.fan_out)
            for serial in range(1, 13):
                await t.send("in", note(serial))
            out = {"x": [], "y": []}
            for _ in range(18):
                channel, message = await t.recv_any(("x", "y"))
                out[channel].append(message.serial)
            return t, out

        t, out = run(scenario())
        # Jitter reorders across the targets, never within one.
        assert out == {"x": list(range(1, 13)), "y": list(range(1, 13, 2))}
        stats = t.stats()
        # Every send is charged once, on the channel that carried it; the
        # alias carried nothing, so it has no row at all.
        assert set(stats) == {"x", "y"}
        assert (stats["x"].sent, stats["x"].sent_bytes) == (12, 120)
        assert (stats["y"].sent, stats["y"].sent_bytes) == (6, 60)
        assert stats["x"].dropped + stats["y"].dropped > 0
        assert t.total_pending() == 0

    def test_a_route_returning_nothing_queues_nothing(self):
        async def scenario():
            t = InMemoryTransport()
            t.alias("in", self.fan_out)
            await t.send("in", note(0))
            return t

        t = run(scenario())
        assert t.total_pending() == 0 and t.stats() == {}

    def test_an_unaliased_channel_is_untouched(self):
        async def scenario():
            t = InMemoryTransport()
            t.alias("in", self.fan_out)
            await t.send("other", note(1))
            return (await t.recv("other")).serial, set(t.stats())

        assert run(scenario()) == (1, {"other"})

