"""The runtime's actors: sources, the warehouse, and reading clients.

Each actor is a coroutine owning one inbox channel (two naming helpers
below fix the topology).  Actors reuse the existing components unchanged:

- :class:`SourceActor` wraps any :class:`repro.source.base.Source`.  It
  executes its own workload at its own (seeded) pace and concurrently
  answers warehouse queries — the decoupling-in-time that creates the
  paper's anomalies now arises from genuine concurrency instead of a
  hand-written schedule.
- :class:`WarehouseUnit` is one warehouse — any routed
  :class:`~repro.core.protocol.WarehouseAlgorithm` (every registry
  family, single- or multi-source, including multi-view
  :class:`~repro.warehouse.catalog.WarehouseCatalog`) plus its wiring —
  and :class:`WarehouseActor` its current incarnation, feeding each
  incoming message through :func:`repro.kernel.dispatch.dispatch_event`,
  the same atomic-event entry point the synchronous kernel and WAL
  replay use.  Owner-routed requests (``destination=None``) go to the
  source owning the relations they read.
- :class:`ClientActor` issues refresh requests and reads the materialized
  view, recording what state it observed at what virtual time.

Actors never share mutable state except through the transport and the
run's history recorder; within one event-loop step each message is
processed atomically (no awaits inside an algorithm call), matching the
paper's atomic-event assumption.
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs imports errors)
    from repro.obs.instrument import Observability

from repro.durability.codec import encode_value
from repro.durability.crash import CrashRun
from repro.durability.wal import RECV, WriteAheadLog
from repro.errors import ChannelEmpty, TransportClosed, WarehouseCrashed
from repro.kernel.dispatch import (
    coalesce_updates,
    dispatch_event,
    event_kind,
    is_duplicate_answer,
    query_owner,
    receive_query_request,
    warehouse_action,
)
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.runtime.transport import InMemoryTransport
from repro.simulation.trace import HistoryRecorder
from repro.source.base import Source
from repro.source.updates import Update
from repro.warehouse.state import Changes


def source_inbox(name: str) -> str:
    """Channel carrying warehouse -> source query requests."""
    return f"wh->{name}"


def warehouse_inbox(name: str) -> str:
    """Channel carrying source/client -> warehouse traffic."""
    return f"{name}->wh"


class ActorMetrics:
    """Message and event counters common to every actor.

    The per-actor slice of the run's accounting; ``RuntimeResult``
    aggregates one of these per actor into ``metrics_table()``, and
    :meth:`repro.obs.instrument.Observability.finalize` republishes them
    as labelled registry counters.
    """

    __slots__ = ("name", "role", "shard", "sent", "received", "events")

    def __init__(self, name: str, role: str, shard: Optional[str] = None) -> None:
        self.name = name
        self.role = role
        #: Shard id (as a string) for per-shard actors; ``None`` keeps the
        #: column out of ``metrics_table()`` entirely, so unsharded runs
        #: render exactly as before.
        self.shard = shard
        self.sent = 0
        self.received = 0
        #: Role-specific event counts (updates applied, queries answered,
        #: reads performed, ...).
        self.events: Dict[str, int] = {}

    def bump(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to the role-specific counter ``key``."""
        self.events[key] = self.events.get(key, 0) + amount

    def declare(self, *keys: str) -> None:
        """Pre-register role counters at zero.

        Actors declare their vocabulary up front so a counter that never
        fires still reports an explicit ``0`` in ``metrics_table()`` —
        e.g. a client that reads zero times before quiescence used to
        drop its ``reads`` column entirely.
        """
        for key in keys:
            self.events.setdefault(key, 0)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"role": self.role}
        if self.shard is not None:
            # Only sharded runs carry the column: ``metrics_table()``
            # builds columns from the union of row keys, so unsharded
            # output is byte-identical to before.
            out["shard"] = self.shard
        out.update({"sent": self.sent, "received": self.received})
        out.update(sorted(self.events.items()))
        return out

    def __repr__(self) -> str:
        return f"ActorMetrics({self.name}, sent={self.sent}, received={self.received})"


class SourceActor:
    """Runs one source: applies its workload, answers queries, concurrently.

    Parameters
    ----------
    name, source, transport:
        Identity, the wrapped database, and the shared transport.
    workload:
        The updates this source will execute, in order.
    recorder:
        The run's one history recorder (assigns global serials, folds the
        source states, logs the action).
    seed, max_burst:
        A per-actor RNG decides how many updates to apply before yielding
        (1..max_burst); different seeds explore different interleavings of
        update execution against query answering, deterministically.
    """

    def __init__(
        self,
        name: str,
        source: Source,
        transport: InMemoryTransport,
        workload: Sequence[Update],
        recorder: HistoryRecorder,
        seed: int = 0,
        max_burst: int = 2,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.name = name
        self.source = source
        self.transport = transport
        self.recorder = recorder
        self.inbox = source_inbox(name)
        self.outbox = warehouse_inbox(name)
        self._workload: Deque[Update] = deque(workload)
        self._rng = random.Random(seed)
        self._max_burst = max(1, max_burst)
        self.metrics = ActorMetrics(name, "source")
        self.metrics.declare("updates_applied", "queries_answered")
        self._obs = obs
        self.workload_done = len(self._workload) == 0
        #: Virtual time of this source's latest update (quiesce latency).
        self.last_update_at = 0.0

    async def run(self) -> None:
        while self._workload:
            for _ in range(1 + self._rng.randrange(self._max_burst)):
                if not self._workload:
                    break
                await self._apply_next()
            # Service whatever queries have arrived before the next burst,
            # so answers interleave with later updates (the anomaly soup).
            while True:
                try:
                    request = self.transport.receive_nowait(self.inbox)
                except ChannelEmpty:
                    break
                await self._answer(request)
            # Sends never block, so yield explicitly: this is the point
            # where the warehouse and the other actors actually run.
            await asyncio.sleep(0)
        self.workload_done = True
        # Keep answering until the harness closes the transport.
        while True:
            try:
                request = await self.transport.recv(self.inbox)
            except TransportClosed:
                return
            await self._answer(request)

    async def _apply_next(self) -> None:
        update = self._workload.popleft()
        self.source.apply_update(update)
        serial = self.recorder.update(self.name, update)
        self.last_update_at = self.transport.now()
        self.metrics.bump("updates_applied")
        self.metrics.sent += 1
        if self._obs is not None:
            self._obs.source_update(self.name, update.relation, serial)
        await self.transport.send(self.outbox, UpdateNotification(update, serial))

    async def _answer(self, message: Message) -> None:
        request = receive_query_request(self.name, message)
        self.metrics.received += 1
        answer = self.source.evaluate(request.query)
        self.recorder.query(self.name, request.query_id, answer)
        self.metrics.bump("queries_answered")
        self.metrics.sent += 1
        if self._obs is not None:
            self._obs.source_answer(self.name, request.query_id, answer.total_count())
        await self.transport.send(self.outbox, QueryAnswer(request.query_id, answer))


@dataclass
class WarehouseUnit:
    """One warehouse of the topology: an algorithm plus its private wiring.

    Everything that differs between the single unsharded warehouse and a
    shard lives here, so the harness and :class:`WarehouseActor` treat
    both alike.  The unsharded unit keeps every default: the whole
    query-id space, the run's own ``obs`` and the ``warehouse`` metrics
    row.  A shard (:func:`repro.sharding.harness.shard_units`) listens on
    its own per-``(origin, shard)`` channels and overrides the rest
    with its slice of the id space, a shard-labelled obs view and metrics
    row, and ``wal_dir/shard-<i>``.  Either way requests go straight to
    the owning source.

    The unit is also what clients, readers and the trace recorder hold:
    when a crash policy kills the warehouse the harness rebuilds a fresh
    :attr:`actor` from the WAL and repoints :attr:`algorithm` at the
    recovered state — readers never notice the swap.
    """

    algorithm: object
    #: Inbox channel -> the source or client behind it, in ``recv_any``
    #: order.  The name is the action-log label (``warehouse:<name>``, so
    #: merged shard logs keep the unsharded vocabulary the conformance
    #: replayer understands) and, when it is a source, the origin of the
    #: channel's notifications and answers.
    inboxes: Dict[str, str]
    shard: Optional[int] = None
    #: How trace details and errors name this unit.
    title: str = "warehouse"
    wal_dir: Optional[str] = None
    obs: Optional["Observability"] = None
    #: One row for the unit's whole life: every incarnation bumps it.
    metrics: ActorMetrics = field(
        default_factory=lambda: ActorMetrics("warehouse", "warehouse")
    )
    #: ``(offset, stride)``: this unit's slice of the query-id space the
    #: sources see (:meth:`wire_id`).  A shard owns ``(shard,
    #: plan.shards)``, so ``plan.route`` finds an answer's owner with one
    #: ``divmod``; the default is the identity.
    id_slice: Tuple[int, int] = (0, 1)
    #: Set on the one unit the run's crash policy applies to.
    crash_run: Optional[CrashRun] = None
    #: The current incarnation's log and actor; the harness sets both and
    #: closes ``wal`` on every exit path.
    wal: Optional[WriteAheadLog] = field(default=None, init=False)
    actor: Optional["WarehouseActor"] = field(default=None, init=False)

    def view_state(self) -> SignedBag:
        """The current incarnation's view, as a read-only snapshot."""
        return self.algorithm.view_state()

    def view_changes(self) -> Optional[Changes]:
        """The current incarnation's changes; ``None`` first after a recovery."""
        return self.algorithm.view_changes()

    def is_quiescent(self) -> bool:
        return self.algorithm.is_quiescent()

    def wire_id(self, query_id: int) -> int:
        """The id a source sees for the algorithm's (local) ``query_id``.

        Units with distinct offsets under one stride never collide, and
        ``divmod(wire_id, stride)`` gives back ``(query_id, offset)``.
        The algorithm, the WAL and recovery only ever hold local ids.
        """
        offset, stride = self.id_slice
        return query_id * stride + offset


class WarehouseActor:
    """One incarnation of a :class:`WarehouseUnit`: its event loop.

    Runs the unit's maintenance algorithm over all of the unit's inboxes
    (one per source, one per client); message interleaving across them is
    decided by the transport's delivery times.  Outgoing query requests
    are routed to the destination the algorithm names, or — for
    owner-routed ``destination=None`` pairs — to the source owning the
    relations the query reads.

    Durability (all optional, see ``repro.durability``):

    - ``unit.wal`` — every received message is appended as a ``"recv"``
      record *before* dispatch, the event's one append, and the log is
      offered a compacting snapshot at each event boundary.  With a WAL
      attached the actor also drops answers whose query id is no longer
      pending: after recovery, a re-issued query can race a pre-crash
      answer still in flight, and the duplicate must die *before* it is
      logged so replay stays strict.
    - ``unit.crash_run`` — consulted once per atomic event (after the WAL
      and dispatch, so the log never lags memory); when it fires the actor
      raises :class:`~repro.errors.WarehouseCrashed`, abandoning its
      state.  ``drop_sends`` crashes suppress the event's outgoing
      requests first.
    - ``reissue`` / ``event_index`` — carried across incarnations by the
      harness: queries recovery found still pending (sent before the
      inbox loop starts) and the global event count the crash policy
      keys on.

    ``cache`` is the serving cache receiving this warehouse's precise
    invalidations (``repro.serving.ServingCache`` or None; in sharded
    runs every shard actor shares the one client-side cache).
    ``batch_k`` is the maximum run of already-delivered consecutive
    update notifications to coalesce into one atomic UpdateBatch event
    (1 = never batch, the legacy per-update protocol).
    """

    def __init__(
        self,
        unit: WarehouseUnit,
        transport: InMemoryTransport,
        owners: Dict[str, str],
        recorder: HistoryRecorder,
        *,
        cache: "object" = None,
        batch_k: int = 1,
        reissue: Optional[Sequence[Tuple[Optional[str], QueryRequest]]] = None,
        event_index: int = 0,
    ) -> None:
        self.unit = unit
        self.transport = transport
        self.owners = dict(owners)
        self.recorder = recorder
        self.cache = cache
        self.batch_k = max(1, batch_k)
        self.event_index = event_index
        self._reissue = list(reissue or [])
        self._sources = frozenset(self.owners.values())
        #: Set for the duration of one _dispatch: the event span and the
        #: UQS snapshot outgoing queries compensate against.
        self._obs_span = None
        self._obs_compensates: Sequence[int] = ()

    async def run(self) -> None:
        unit = self.unit
        inboxes = tuple(unit.inboxes)
        for destination, request in self._reissue:
            await self._send_request(destination, request, reissued=True)
        self._reissue = []
        while True:
            try:
                channel, message = await self.transport.recv_any(inboxes)
            except TransportClosed:
                return
            unit.metrics.received += 1
            # Who is behind the channel; only a source is an origin.
            sender = unit.inboxes[channel]
            origin = sender if sender in self._sources else None
            if self.batch_k > 1 and isinstance(message, UpdateNotification):
                members = coalesce_updates(
                    message,
                    self.batch_k,
                    partial(self.transport.peek_nowait, channel),
                    partial(self.transport.receive_nowait, channel),
                )
                unit.metrics.received += len(members) - 1
                if len(members) > 1:
                    message = UpdateBatch(tuple(members))
                    unit.metrics.bump("batched_updates", len(members))
            if unit.wal is not None:
                if is_duplicate_answer(unit.algorithm, message):
                    unit.metrics.bump("duplicate_answers_dropped")
                    await asyncio.sleep(0)
                    continue
                unit.wal.append(
                    RECV,
                    {
                        "channel": channel,
                        "origin": origin,
                        "message": encode_value(message),
                    },
                )
            await self._dispatch(sender, origin, message)
            # One atomic event per scheduling slice: yield so sources and
            # clients interleave between warehouse events, as in the paper.
            await asyncio.sleep(0)

    async def _dispatch(
        self, sender: str, origin: Optional[str], message: Message
    ) -> None:
        unit = self.unit
        algorithm = unit.algorithm
        obs = unit.obs
        pending_before: Sequence[int] = ()
        if obs is not None:
            begin_kind = event_kind(message)
            pending_before = tuple(algorithm.pending_query_ids())
            self._obs_span = obs.wh_event_begin(begin_kind, message, origin)
            # An answer event retires its own query id before any follow-up
            # query is built, so it is not compensated against (Section 5.2).
            self._obs_compensates = tuple(
                qid
                for qid in pending_before
                if not (begin_kind == "W_ans" and qid == message.query_id)
            )
        kind, detail, routed, dirtied = dispatch_event(algorithm, origin, message)
        # Invalidations stream out before the crash decision below: a real
        # deployment's cache tier outlives the warehouse process, and the
        # pre-crash incarnation already applied this event to its state.
        # (Recovery replay re-drains the same keys inside dispatch_event
        # and discards them — each event invalidates exactly once.)
        if self.cache is not None and dirtied:
            self.cache.invalidate(dirtied)
        self.event_index += 1
        fired = False
        if unit.crash_run is not None:
            pending = len(algorithm.pending_query_ids())
            fired = unit.crash_run.decide(self.event_index, kind, pending)
        drop_sends = fired and unit.crash_run.policy.drop_sends
        if unit.wal is not None:
            unit.wal.maybe_snapshot(algorithm)
        if not drop_sends:
            for destination, request in routed:
                await self._send_request(destination, request)
        self.recorder.event(kind, detail, warehouse_action(sender, message))
        if obs is not None:
            obs.wh_event_end(self._obs_span, kind, message, algorithm, pending_before)
            self._obs_span = None
            self._obs_compensates = ()
        if fired:
            raise WarehouseCrashed(self.event_index, unit.crash_run.policy.mode, drop_sends)

    async def _send_request(
        self, destination: Optional[str], request: QueryRequest, reissued: bool = False
    ) -> None:
        """Route one outgoing query (``destination=None`` → owner lookup)."""
        unit = self.unit
        if destination is None:
            destination = query_owner(request.query, self.owners)
        unit.metrics.sent += 1
        if reissued:
            unit.metrics.bump("reissued_queries")
        if unit.obs is not None:
            unit.obs.wh_query_sent(
                self._obs_span,
                request.query_id,
                destination,
                self._obs_compensates,
                reissued,
            )
        await self.transport.send(
            source_inbox(destination),
            QueryRequest(unit.wire_id(request.query_id), request.query),
        )


class ClientActor:
    """A warehouse client: requests refreshes and reads the view.

    Reads happen at event-loop scheduling points, so every observation is
    some state the warehouse actually exposed between atomic events —
    recorded as ``(virtual time, view contents)`` in ``observations`` for
    staleness analysis by the harness.
    """

    def __init__(
        self,
        name: str,
        transport: InMemoryTransport,
        warehouse: WarehouseUnit,
        recorder: HistoryRecorder,
        reads: int = 4,
        seed: int = 0,
        max_think: int = 4,
        obs: Optional["Observability"] = None,
    ) -> None:
        self.name = name
        self.transport = transport
        self.warehouse = warehouse
        self.recorder = recorder
        self.outbox = warehouse_inbox(name)
        self.reads = reads
        self._rng = random.Random(seed)
        self._max_think = max(1, max_think)
        self.metrics = ActorMetrics(name, "client")
        self.metrics.declare("reads")
        self._obs = obs
        self.observations: List[Tuple[float, SignedBag]] = []

    async def run(self) -> None:
        for serial in range(1, self.reads + 1):
            try:
                await self.transport.send(self.outbox, RefreshRequest(serial))
            except TransportClosed:
                return
            self.metrics.sent += 1
            self.recorder.refresh(serial, self.name)
            if self._obs is not None:
                self._obs.client_refresh(self.name, serial)
            # Think, then read whatever the warehouse currently exposes.
            for _ in range(self._rng.randrange(self._max_think) + 1):
                await asyncio.sleep(0)
            view = self.warehouse.view_state()
            self.observations.append((self.transport.now(), view))
            self.metrics.bump("reads")
            if self._obs is not None:
                self._obs.client_read(self.name, view.total_count())
