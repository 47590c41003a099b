"""The synchronous execution kernel: one pump for every sync driver.

:class:`SyncKernel` owns the per-source FIFO channel pairs, executes the
workload, evaluates source queries, and feeds warehouse messages through
:func:`repro.kernel.dispatch.dispatch_event` — the same atomic events,
trace records, and routing the asyncio runtime performs.  The historical
:class:`repro.simulation.driver.Simulation` facade (one source, legacy
action names) subclasses it; schedules drive either through :meth:`run`.

Actions (all strings, chooseable by a schedule):

- ``"update"``             — execute the next workload item at its owning
  source and send the notification (a :data:`REFRESH` marker becomes a
  client refresh request instead);
- ``"answer:<source>"``    — that source evaluates its oldest pending
  query and sends the answer;
- ``"warehouse:<name>"``   — the warehouse processes the oldest message
  on ``<name>``'s channel (``<name>`` is a source or a client); with
  ``batch_k > 1`` a run of up to ``batch_k`` consecutive update
  notifications is coalesced into one atomic
  :class:`~repro.messaging.messages.UpdateBatch` event;
- ``"warehouse:<name>@<n>"`` — as above but coalescing *exactly* ``n``
  notifications (how conformance replay reproduces a concurrent run's
  batching decisions from its action log);
- ``"refresh:<client>"``   — client ``<client>`` enqueues a refresh
  request on its own warehouse channel (used by conformance replay).

Every step is recorded through one
:class:`~repro.simulation.trace.HistoryRecorder` — the writer the asyncio
runtime uses too — which yields :attr:`SyncKernel.trace`,
:attr:`SyncKernel.per_source_states` and :attr:`SyncKernel.action_log`
(the steps taken, in the source-qualified form above: an ``"update"``
is logged as ``update:<source>``, a coalescing step with its ``@<n>``).
"""

from __future__ import annotations

import logging
from collections import deque
from typing import (
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
)

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import SimulationError
from repro.kernel.dispatch import (
    coalesce_updates,
    dispatch_event,
    relation_owners,
    resolve_destination,
    warehouse_action,
)
from repro.messaging.channel import FifoChannel
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.expressions import Query
from repro.simulation.trace import HistoryRecorder, Trace
from repro.source.base import Source
from repro.source.updates import Update

logger = logging.getLogger("repro.kernel")

#: Name of the implicit warehouse client that issues the refresh
#: requests a :data:`REFRESH` workload marker stands for in multi-source
#: runs.  Reserved: no source may use it.
CLIENT = "client"


class _RefreshMarker:
    """Workload sentinel: a warehouse client reads the view here.

    Place :data:`REFRESH` in a workload to model deferred/periodic
    maintenance: the kernel injects a :class:`RefreshRequest` into the
    warehouse's inbox instead of executing a source update.
    """

    def __repr__(self) -> str:
        return "REFRESH"


#: The refresh sentinel (a singleton).
REFRESH = _RefreshMarker()

#: What a kernel workload may contain: source updates interleaved with
#: client refresh markers.
WorkloadItem = Union[Update, _RefreshMarker]


class Schedule(Protocol):
    """Structural interface of the simulation schedules driving :meth:`run`."""

    def choose(self, available: Sequence[str]) -> str: ...


class Recorder(Protocol):
    """Structural interface of the cost recorders the kernel reports to."""

    def record_request(self, request: QueryRequest) -> None: ...

    def record_answer(self, answer: QueryAnswer) -> None: ...

    def record_evaluation(self, query: Query, source: Source) -> None: ...


class ServingCacheLike(Protocol):
    """Structural interface of the serving cache (``repro.serving``).

    The kernel only *drives invalidation*; it never reads through the
    cache itself (reads stay client-side), so this is the whole contract
    and keeps ``repro.kernel`` free of a serving-layer import.
    """

    def watch(self, warehouse: object) -> None: ...

    def invalidate_writes(self, warehouse: object) -> None: ...


class SyncKernel:
    """One warehouse, N sources, per-source FIFO ordering.

    Parameters
    ----------
    sources:
        ``name -> Source``; relation names must be globally unique.
    algorithm:
        Any routed :class:`~repro.core.protocol.WarehouseAlgorithm`
        (including :class:`~repro.warehouse.catalog.WarehouseCatalog`).
        The kernel binds the relation-owner map before the run starts.
    workload:
        Updates in global order, each routed to its owning source;
        :data:`REFRESH` markers become client refresh requests.
    recorder:
        Optional cost recorder (``record_request`` / ``record_answer`` /
        ``record_evaluation``); when it can size messages it doubles as
        the channel sizer so the B metric shows up in ``sent_bytes``.
    cache:
        Optional :class:`repro.serving.ServingCache`.  When set, it
        watches the algorithm's views from construction on and every
        warehouse event invalidates the keys it wrote, so reads served
        through the cache between steps see precise maintenance-driven
        invalidation.
    batch_k:
        Maximum run of consecutive update notifications a
        ``warehouse:<name>`` step coalesces into one atomic
        :class:`~repro.messaging.messages.UpdateBatch` event.  The
        default 1 never constructs a batch — byte-for-byte the legacy
        per-update protocol.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        algorithm: WarehouseAlgorithm,
        workload: Sequence[WorkloadItem],
        recorder: Optional[Recorder] = None,
        cache: Optional["ServingCacheLike"] = None,
        batch_k: int = 1,
    ) -> None:
        self.sources = dict(sources)
        if not self.sources:
            raise SimulationError("the kernel needs at least one source")
        if CLIENT in self.sources:
            raise SimulationError(f"source name {CLIENT!r} is reserved for clients")
        if batch_k < 1:
            raise SimulationError(f"batch_k must be >= 1, got {batch_k}")
        self.algorithm = algorithm
        self.recorder = recorder
        self.cache = cache
        self.batch_k = batch_k
        self._updates: Deque[WorkloadItem] = deque(workload)
        self.owners = relation_owners(self.sources)
        algorithm.bind_owners(self.owners)
        if cache is not None:
            cache.watch(algorithm)
        #: The sole source's name in single-source runs (owner routing
        #: shortcut + legacy refresh-on-the-source-channel behavior).
        self._sole = next(iter(self.sources)) if len(self.sources) == 1 else None
        sizer = getattr(recorder, "message_size", None)
        #: name -> channel into the warehouse (sources and clients).
        self.inbound: Dict[str, FifoChannel] = {
            name: FifoChannel(f"{name}->warehouse", sizer=sizer)
            for name in self.sources
        }
        #: source name -> channel from the warehouse back to that source.
        self.outbound: Dict[str, FifoChannel] = {
            name: FifoChannel(f"warehouse->{name}", sizer=sizer)
            for name in self.sources
        }
        self._client_serials: Dict[str, int] = {}
        self._refresh_serial = 0
        self._history = HistoryRecorder(self.sources, algorithm)
        self.trace = self._history.trace
        #: Per-source state histories: name -> [state after i updates at
        #: that source].  Used by the cut-consistency checker.
        self.per_source_states = self._history.per_source_states
        #: Every step taken so far, in ``RuntimeResult.action_log``'s form.
        self.action_log = self._history.action_log

    def _client_channel(self, name: str) -> FifoChannel:
        if name in self.sources:
            raise SimulationError(f"client name {name!r} collides with a source")
        channel = self.inbound.get(name)
        if channel is None:
            channel = FifoChannel(f"{name}->warehouse")
            self.inbound[name] = channel
        return channel

    # ------------------------------------------------------------------ #
    # Action availability
    # ------------------------------------------------------------------ #

    def available_actions(self) -> List[str]:
        actions: List[str] = []
        if self._updates:
            actions.append("update")
        for name in sorted(self.sources):
            if not self.outbound[name].is_empty():
                actions.append(f"answer:{name}")
            if not self.inbound[name].is_empty():
                actions.append(f"warehouse:{name}")
        for name in sorted(self.inbound):
            if name not in self.sources and not self.inbound[name].is_empty():
                actions.append(f"warehouse:{name}")
        return actions

    def is_done(self) -> bool:
        return not self.available_actions()

    # ------------------------------------------------------------------ #
    # Primitive actions
    # ------------------------------------------------------------------ #

    def step(self, action: str) -> None:
        if action == "update":
            self._do_update()
        elif action.startswith("answer:"):
            self._do_answer(action.split(":", 1)[1])
        elif action.startswith("warehouse:"):
            target = action.split(":", 1)[1]
            if "@" in target:
                # Replay form: coalesce exactly n notifications (how a
                # logged concurrent run's batching decisions replay).
                name, _, count = target.rpartition("@")
                self._do_warehouse(name, exactly=int(count))
            else:
                self._do_warehouse(target)
        elif action.startswith("refresh:"):
            self._do_refresh(action.split(":", 1)[1])
        else:
            raise SimulationError(f"unknown action {action!r}")

    def _do_update(self) -> None:
        """``S_up``: execute the next update, then notify the warehouse.

        A :data:`REFRESH` workload item is a warehouse-client read rather
        than a source update: it skips the sources entirely and enqueues
        a refresh request on the warehouse's inbox — the sole source's
        channel in single-source runs (the historical FIFO coupling with
        update notifications), the implicit :data:`CLIENT` channel
        otherwise.
        """
        if not self._updates:
            raise SimulationError("no workload updates remain")
        update = self._updates.popleft()
        if isinstance(update, _RefreshMarker):
            self._refresh_serial += 1
            logger.debug("client refresh #%d requested", self._refresh_serial)
            if self._sole is not None:
                self._history.refresh(self._refresh_serial)
                self.inbound[self._sole].send(RefreshRequest(self._refresh_serial))
            else:
                self._history.refresh(self._refresh_serial, CLIENT)
                self._client_channel(CLIENT).send(
                    RefreshRequest(self._refresh_serial)
                )
            return
        owner = self.owners.get(update.relation)
        if owner is None:
            raise SimulationError(f"no source owns relation {update.relation!r}")
        self.sources[owner].apply_update(update)
        logger.debug("source %s executed %r", owner, update)
        serial = self._history.update(owner, update)
        self.inbound[owner].send(UpdateNotification(update, serial))

    def _do_answer(self, name: str) -> None:
        """``S_qu``: the source receives the oldest query, evaluates it on
        its current state, and sends the answer."""
        message = self.outbound[name].receive()
        if not isinstance(message, QueryRequest):
            raise SimulationError(f"source {name} received {message!r}")
        answer = self.sources[name].evaluate(message.query)
        if logger.isEnabledFor(logging.DEBUG):
            # total_count() walks the whole answer: only when it is logged.
            logger.debug(
                "source %s answered Q%d with %d tuple(s)",
                name,
                message.query_id,
                answer.total_count(),
            )
        if self.recorder is not None:
            self.recorder.record_evaluation(message.query, self.sources[name])
        self._history.query(name, message.query_id, answer)
        reply = QueryAnswer(message.query_id, answer)
        if self.recorder is not None:
            self.recorder.record_answer(reply)
        self.inbound[name].send(reply)

    def _do_warehouse(self, name: str, exactly: Optional[int] = None) -> None:
        """``W_up`` / ``W_ans`` / ``W_ref``: process the oldest message
        from ``name``'s channel atomically.

        With ``batch_k > 1`` (or an explicit ``exactly`` count from a
        replayed ``warehouse:<name>@<n>`` action) a run of consecutive
        update notifications at the head of the channel is coalesced into
        one :class:`UpdateBatch` and dispatched as a single event.
        """
        channel = self.inbound[name]
        message = channel.receive()
        limit = exactly if exactly is not None else self.batch_k
        if limit > 1 and isinstance(message, UpdateNotification):
            members = coalesce_updates(message, limit, channel.peek, channel.receive)
            if exactly is not None and len(members) != exactly:
                raise SimulationError(
                    f"replay asked to batch {exactly} notifications from "
                    f"{name!r} but only {len(members)} were available"
                )
            if len(members) > 1:
                message = UpdateBatch(tuple(members))
        elif exactly is not None and exactly > 1:
            raise SimulationError(
                f"replay asked to batch {exactly} notifications from "
                f"{name!r} but the channel head is {message!r}"
            )
        origin = name if name in self.sources else None
        kind, detail, routed = dispatch_event(self.algorithm, origin, message)
        if self.cache is not None:
            self.cache.invalidate_writes(self.algorithm)
        for destination, request in routed:
            if self.recorder is not None:
                self.recorder.record_request(request)
            target = resolve_destination(
                destination, request, self.owners, sole=self._sole
            )
            self.outbound[target].send(request)
        self._history.event(kind, detail, warehouse_action(name, message))

    def _do_refresh(self, client: str) -> None:
        """``C_ref``: a named client enqueues a refresh request."""
        serial = self._client_serials.get(client, 0) + 1
        self._client_serials[client] = serial
        self._history.refresh(serial, client)
        self._client_channel(client).send(RefreshRequest(serial))

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def run(self, schedule: Schedule, max_steps: int = 1_000_000) -> Trace:
        """Run to quiescence under ``schedule``; returns the trace."""
        steps = 0
        while True:
            available = self.available_actions()
            if not available:
                break
            if steps >= max_steps:
                raise SimulationError(
                    f"simulation exceeded {max_steps} steps without quiescing"
                )
            self.step(schedule.choose(available))
            steps += 1
        if not self.algorithm.is_quiescent():
            # Channels are drained and the workload is exhausted, yet the
            # algorithm still holds buffered work: a deadlocked algorithm
            # (or an RV with a partial period, which callers opt into by
            # choosing a non-dividing period).
            if getattr(self.algorithm, "uqs", None):
                raise SimulationError(
                    f"algorithm {self.algorithm.name!r} still has pending "
                    f"queries after quiescence: {sorted(self.algorithm.uqs)}"
                )
        return self.trace
