"""``run_concurrent``: drive N sources × M clients to quiescence.

The harness wires sources, the warehouse, and view-reading clients onto a
shared transport, runs them as asyncio tasks, and records a global
:class:`~repro.simulation.trace.Trace` through the same
:class:`~repro.simulation.trace.HistoryRecorder` the synchronous drivers
use — one source state per executed update, one view snapshot per
warehouse event, one action-log entry per step — so
:func:`repro.consistency.checker.check_trace` classifies concurrent
executions against the Section 3.1 hierarchy with no changes.

The warehouse side is a list of :class:`WarehouseUnit`: one unit, or with
``shards=N`` one per populated shard, each receiving directly what
``ShardPlan.route`` sends it (Section 7: "ECA is simply applied to each
view separately").  Every unit queries the sources directly.  Transport,
recorder, crash restart, supervision, quiescence and result assembly are
the same code in both modes.

Everything runs on one event loop with no wall-clock waits, so a run is
deterministic: the same sources, workloads, seed, and fault plan replay
the identical event trace.  Wall-clock duration is measured only as a
throughput metric and never feeds back into scheduling.

Termination: the harness waits for every client to finish and every
source workload to drain, then polls (at scheduling points) until all
channels are empty and the algorithm is quiescent, and finally closes the
transport, unwinding the actor tasks.  A drained, idle run whose
algorithm still holds work can never quiesce and fails at once.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.durability.crash import CrashPolicy
from repro.durability.recovery import recover
from repro.durability.wal import WriteAheadLog
from repro.errors import SimulationError, TransportClosed, WarehouseCrashed
from repro.kernel.dispatch import relation_owners
from repro.messaging.wire import create_codec
from repro.relational.bag import SignedBag
from repro.runtime.actors import (
    ActorMetrics,
    ClientActor,
    SourceActor,
    WarehouseActor,
    WarehouseUnit,
    next_turn,
    warehouse_inbox,
)
from repro.runtime.transport import ChannelStats, FaultPlan, InMemoryTransport
from repro.serving import ReadClientActor, ReadMismatch, ServingCache, reader_for, serving_report
from repro.simulation.trace import W_CRASH, W_REC, HistoryRecorder, Trace
from repro.source.base import Source
from repro.source.updates import Update

SourcesArg = Union[Source, Mapping[str, Source]]
WorkloadArg = Union[Sequence[Update], Mapping[str, Sequence[Update]]]

#: Safety valve for the quiescence poll loop.
_MAX_POLLS = 1_000_000


class RuntimeResult:
    """Everything one concurrent run produced."""

    def __init__(
        self,
        trace: Trace,
        metrics: Dict[str, ActorMetrics],
        channel_stats: Dict[str, ChannelStats],
        updates: int,
        quiesce_latency: float,
        virtual_duration: float,
        wall_seconds: float,
        observations: Dict[str, List[Tuple[float, SignedBag]]],
        final_view: SignedBag,
        crashes: Optional[List[Dict[str, object]]] = None,
        wal_stats: Optional[Dict[str, int]] = None,
        action_log: Optional[List[str]] = None,
        per_source_states: Optional[Mapping[str, List[Dict[str, SignedBag]]]] = None,
        shard_info: Optional[Dict[str, object]] = None,
        serving: Optional[Dict[str, object]] = None,
        read_results: Optional[Dict[str, List[object]]] = None,
        read_mismatches: Optional[List[ReadMismatch]] = None,
    ) -> None:
        self.trace = trace
        self.metrics = metrics
        self.channel_stats = channel_stats
        self.updates = updates
        #: Virtual time from the last executed update to quiescence
        #: (0 on the reliable zero-latency transport).
        self.quiesce_latency = quiesce_latency
        #: Total virtual time the run spanned.
        self.virtual_duration = virtual_duration
        #: Real time the run took (throughput denominator only).
        self.wall_seconds = wall_seconds
        #: Per-client ``(virtual time, view contents)`` read samples.
        self.observations = observations
        self.final_view = final_view
        #: One dict per injected crash (event index, mode, snapshot LSN,
        #: replayed record count, re-issued queries, virtual time).
        self.crashes = list(crashes or [])
        #: WAL totals across all incarnations (``None`` when no WAL ran).
        self.wal_stats = wal_stats
        #: Global action order, in kernel action-string form — replayable
        #: on the synchronous kernel (:mod:`repro.kernel.conformance`).
        self.action_log = list(action_log or [])
        self._per_source_states = per_source_states or {}
        #: Sharded runs only (``None`` otherwise): shard count, partitioner
        #: kind, view assignment, and the final per-shard algorithms — see
        #: :mod:`repro.sharding.harness`.
        self.shard_info = shard_info
        #: Serving-tier summary — ``ServingCache.report()`` plus the
        #: backend read count — when a cache fronted this run.
        self.serving = serving
        #: Per-reader :class:`repro.serving.ReadResult` lists.
        self.read_results = dict(read_results or {})
        #: Verify-mode divergences (must be empty at staleness bound 0).
        self.read_mismatches = list(read_mismatches or [])

    @property
    def per_source_states(self) -> Dict[str, List[Dict[str, SignedBag]]]:
        """Per-source state histories for the cut-consistency checker.

        The recorder's, folded on first read (read-only).
        """
        if not isinstance(self._per_source_states, dict):
            self._per_source_states = dict(self._per_source_states)
        return self._per_source_states

    def throughput(self) -> float:
        """Updates fully processed per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return self.updates / self.wall_seconds

    def metrics_table(self) -> List[Dict[str, object]]:
        """Uniform-column rows (renderable with ``render_table``).

        Includes one ``ch:<name>`` row per transport channel, surfacing
        the fault counters (drops, retries, reorders) a
        :class:`FaultPlan` produced alongside the actor counters.
        """
        dicts = {name: self.metrics[name].as_dict() for name in self.metrics}
        for name, stats in self.channel_stats.items():
            dicts[f"ch:{name}"] = {
                "role": "channel",
                "sent": stats.sent,
                "received": stats.delivered,
                "dropped": stats.dropped,
                "retries": stats.retries,
                "reordered": stats.reordered,
            }
        columns: List[str] = []
        for fields in dicts.values():
            for key in fields:
                if key not in columns:
                    columns.append(key)
        rows = []
        for name in sorted(dicts):
            row: Dict[str, object] = {"actor": name}
            row.update({column: dicts[name].get(column, 0) for column in columns})
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return (
            f"RuntimeResult(updates={self.updates}, events="
            f"{len(self.trace.events)}, quiesce_latency={self.quiesce_latency:g})"
        )


def _normalize_sources(sources: SourcesArg) -> Dict[str, Source]:
    if isinstance(sources, Source):
        return {"source": sources}
    named = dict(sources)
    if not named:
        raise SimulationError("run_concurrent needs at least one source")
    return named


def _normalize_workloads(
    workload: WorkloadArg,
    sources: Mapping[str, Source],
    owners: Mapping[str, str],
) -> Dict[str, List[Update]]:
    """Split a global update stream per owning source (or pass through)."""
    if isinstance(workload, Mapping):
        per_source = {name: list(updates) for name, updates in workload.items()}
        unknown = set(per_source) - set(sources)
        if unknown:
            raise SimulationError(f"workload names unknown sources: {sorted(unknown)}")
    else:
        per_source = {name: [] for name in sources}
        for update in workload:
            owner = owners.get(update.relation)
            if owner is None:
                raise SimulationError(f"no source owns relation {update.relation!r}")
            per_source[owner].append(update)
    for name in sources:
        per_source.setdefault(name, [])
    return per_source


def run_concurrent(
    sources: SourcesArg,
    algorithm: object,
    workload: WorkloadArg,
    *,
    clients: int = 0,
    client_reads: int = 4,
    faults: Optional[FaultPlan] = None,
    seed: int = 0,
    max_burst: int = 2,
    sizer: Optional[object] = None,
    wal_dir: Optional[str] = None,
    wal_fsync: bool = False,
    snapshot_every: Optional[int] = 8,
    crash: Optional[CrashPolicy] = None,
    obs: Optional[object] = None,
    shards: Optional[int] = None,
    partitioner: object = "hash",
    crash_shard: int = 0,
    record_trace: bool = True,
    cache: Optional[ServingCache] = None,
    read_workload: Optional[Sequence[Tuple[str, Tuple[object, ...]]]] = None,
    verify_reads: bool = False,
    batch_k: int = 1,
    wire_codec: Optional[str] = None,
) -> RuntimeResult:
    """Run sources, warehouse, and clients concurrently to quiescence.

    Parameters
    ----------
    sources:
        One :class:`Source` or a ``name -> Source`` mapping (relation
        names must be globally unique).
    algorithm:
        Any routed :class:`~repro.core.protocol.WarehouseAlgorithm` —
        every registry family, single- or multi-source, including
        :class:`~repro.warehouse.catalog.WarehouseCatalog`.  The harness
        binds the relation-owner map before the run starts.
    workload:
        A global update sequence (routed to owning sources) or a
        ``source name -> updates`` mapping.
    clients:
        Number of concurrent view-reading clients.
    faults:
        A :class:`FaultPlan` deciding each send's delivery time (latency,
        jitter, drop/retry); ``None`` delivers every message at once.
    seed:
        Master seed: actor pacing and transport faults derive their
        private RNGs from it, so one seed pins the whole execution.
    max_burst:
        Largest number of updates a source applies before yielding.
    sizer:
        Optional message sizer for byte accounting (e.g.
        ``CostRecorder().message_size``).
    wal_dir:
        Directory for a :class:`~repro.durability.wal.WriteAheadLog`; the
        warehouse logs every received message before dispatching it and a
        genesis snapshot is taken before the first event.
    wal_fsync:
        Force ``os.fsync`` on every WAL append (real crash safety, real
        cost — see the durability benchmark).
    snapshot_every:
        Compacting-snapshot cadence in WAL records (``None`` disables).
    crash:
        A :class:`~repro.durability.crash.CrashPolicy`.  Requires
        ``wal_dir``: when it fires, the warehouse actor dies mid-run and
        is rebuilt from snapshot + WAL replay while sources and clients
        keep running on the same transport.
    obs:
        An :class:`repro.obs.instrument.Observability` bundle; when set,
        every actor, the WAL, and recovery emit causal spans and registry
        metrics through it (timestamps use the transport's virtual
        clock), and ``obs.finalize`` reads the run's own counts — actor
        rows, crash records, each unit's final algorithm — once at the
        end.  ``None`` (the default) costs one ``is None``
        check per hook site.
    shards:
        Partition the warehouse into this many shards.  Updates, answers
        and refreshes go straight to the shards
        :meth:`~repro.sharding.plan.ShardPlan.route` names (each shard
        numbers its queries ``local id * shards + shard`` and sends them
        to the sources itself); ``None`` (the default) runs one warehouse
        actor on the sources' channels.  ``algorithm`` must then be a
        :class:`~repro.warehouse.catalog.WarehouseCatalog` or a
        single-view algorithm (wrapped into a one-view catalog); its
        member views are placed on shards by ``partitioner``, each shard
        logs to ``wal_dir/shard-<i>``, and ``crash`` fires on
        ``crash_shard`` only while the others keep serving.  The result
        carries the merged tagged view, one ``shard<i>`` metrics row per
        shard, and the plan in ``shard_info``.  ``obs`` must be
        ``Observability(sharded=True)`` then, and only then.
    partitioner:
        Sharded runs only: ``"hash"``, ``"range"``, or a
        :class:`~repro.sharding.partition.Partitioner` instance.
    crash_shard:
        Sharded runs only: the shard ``crash`` applies to.
    record_trace:
        When ``False``, record no events and keep no view journal (a
        recorded event costs what it changed) — action log, serials, and
        metrics still accrue.  For benchmarks; consistency checkers need
        the full trace.
    cache:
        A :class:`repro.serving.ServingCache` fronting the warehouse for
        read traffic.  The warehouse actor streams the keys each event
        wrote into it (precise invalidation); a ``read_workload``
        is served through it by a reader actor.  In a sharded run the
        one cache sits in front of all the shards, shared by every shard
        actor's invalidation stream and read through the merged facade —
        a shard crash-and-recover swaps incarnations under it without
        losing invalidations (the dead incarnation pushed them before
        dying, and the recovered one is watched only after its replay,
        so each event invalidates exactly once).
    read_workload:
        ``(view, key)`` addresses for a :class:`ReadClientActor` —
        usually :func:`repro.workloads.random_gen.zipf_read_workload`
        over the view's serving keys.  Works with ``cache=None`` too
        (direct backend reads, the cache-off baseline).
    verify_reads:
        Compare every cached answer against a direct backend read taken
        atomically with it; divergences land in
        ``RuntimeResult.read_mismatches`` (empty at staleness bound 0).
    batch_k:
        Maximum run of consecutive already-delivered update notifications
        the warehouse coalesces into one atomic
        :class:`~repro.messaging.messages.UpdateBatch` event, answered by
        a single compensating query ``Q<U1,...,Uk>``.  The default 1
        never batches — byte-for-byte the legacy per-update protocol.
        With ``shards`` each shard coalesces from its own per-``(origin,
        shard)`` channels.
    wire_codec:
        Name of a :mod:`repro.messaging.wire` codec (``"none"``,
        ``"frame"``, ``"zlib"``, ``"zstd"``).  When set (and not
        ``"none"``), every channel's ``sent_bytes`` counts the real
        framed (optionally compressed) serialization of each message
        instead of the abstract sizer estimate.
    """
    named_sources = _normalize_sources(sources)
    owners = relation_owners(named_sources)
    workloads = _normalize_workloads(workload, named_sources, owners)
    source_names = sorted(named_sources)
    client_names = [f"client-{i}" for i in range(clients)]
    plan = None
    if shards is not None:
        # Imported here: repro.sharding builds on this module.
        from repro.sharding.harness import (
            ShardedWarehouse,
            alias_shards,
            shard_info,
            shard_units,
        )
        from repro.sharding.plan import plan_shards

        plan = plan_shards(algorithm, shards, partitioner, owners)

    # Every axis composes or is rejected here, before anything is opened.
    if clients < 0:
        raise SimulationError(f"clients must be >= 0, got {clients}")
    if client_reads < 0:
        raise SimulationError(f"client_reads must be >= 0, got {client_reads}")
    if batch_k < 1:
        raise SimulationError(f"batch_k must be >= 1, got {batch_k}")
    if not (snapshot_every is None or snapshot_every >= 1):
        raise SimulationError(f"snapshot_every must be >= 1, got {snapshot_every}")
    if crash is not None and wal_dir is None:
        raise SimulationError("crash injection requires wal_dir= (recovery source)")
    if plan is None:
        if crash_shard != 0:
            raise SimulationError(f"crash_shard={crash_shard} requires shards=")
    elif crash is not None and crash_shard not in plan.shard_ids:
        raise SimulationError(
            f"crash_shard={crash_shard} is not a populated shard "
            f"(populated: {list(plan.shard_ids)})"
        )
    if obs is not None and getattr(obs, "sharded", False) != (plan is not None):
        raise SimulationError(
            f"shards={shards} needs Observability(sharded={plan is not None}): "
            f"warehouse series carry the shard label exactly when the run is "
            f"sharded (without it shards collide, with it an unsharded "
            f"warehouse cannot report)"
        )

    codec = create_codec(wire_codec) if wire_codec is not None else None
    transport = InMemoryTransport(
        sizer=sizer, codec=codec, plan=faults, seed=seed + 0x5EED
    )
    if obs is not None:
        obs.attach_clock(transport.now)
    crash_run = crash.start() if crash is not None else None

    senders = source_names + client_names
    if plan is None:
        units = [
            WarehouseUnit(
                algorithm,
                {warehouse_inbox(name): name for name in senders},
                wal_dir=wal_dir,
                obs=obs,
                crash_run=crash_run,
            )
        ]
    else:
        units = shard_units(plan, senders, wal_dir, obs, crash_run, crash_shard)
        alias_shards(transport, plan, units, senders)
    # Clients, the recorder and readers hold the unit, so they survive
    # incarnation swaps; one unit is its own facade (no merge).
    warehouse = units[0] if plan is None else ShardedWarehouse(units)
    recorder = HistoryRecorder(named_sources, warehouse, record_trace)

    if cache is not None:
        cache.bind_obs(obs)
        if obs is not None:
            # One cache fronts every unit, so it annotates with the worst
            # lag across them (a stale answer may involve any shard).
            views = [unit.obs for unit in units]
            cache.attach_lag(lambda: max(view.staleness_lag() for view in views))

    source_actors = [
        SourceActor(
            name,
            named_sources[name],
            transport,
            workloads[name],
            recorder,
            seed=seed + 1 + index,
            max_burst=max_burst,
            obs=obs,
        )
        for index, name in enumerate(source_names)
    ]

    def _incarnate(unit: WarehouseUnit, algorithm: object, **carried: object) -> None:
        """Start ``unit``'s next incarnation over ``algorithm``.

        With a WAL the incarnation opens its own handle and snapshots at
        once.  At genesis that makes recovery possible before the first
        snapshot cadence fires; after a crash it folds the replayed
        suffix, so a second crash recovers from here, not from before
        the first one.
        """
        algorithm.bind_owners(owners)
        unit.algorithm = algorithm
        if unit.wal_dir is not None:
            unit.wal = WriteAheadLog(
                unit.wal_dir, fsync=wal_fsync, snapshot_every=snapshot_every, obs=unit.obs
            )
            unit.wal.snapshot(algorithm)
        unit.actor = WarehouseActor(
            unit, transport, owners, recorder, cache=cache, batch_k=batch_k, **carried
        )

    crashes: List[Dict[str, object]] = []
    wal_totals = {"records": 0, "snapshots": 0, "last_lsn": 0}

    def _retire_wal(unit: WarehouseUnit) -> None:
        """Fold the unit's WAL handle into the totals, flush it, free its lock."""
        wal, unit.wal = unit.wal, None
        if wal is not None:
            wal_totals["records"] += wal.appended
            wal_totals["snapshots"] += wal.snapshots_taken
            wal_totals["last_lsn"] = max(wal_totals["last_lsn"], wal.last_lsn)
            wal.close()

    def _restart(unit: WarehouseUnit, fault: WarehouseCrashed) -> None:
        """Replace a dead unit with one rebuilt from its own WAL.

        Runs synchronously inside the unit's supervisor: no message is
        lost (they wait in the transport) and every other actor — other
        shards included — keeps running.
        """
        recorder.event(
            W_CRASH,
            f"{unit.title} crashed at event {fault.event_index} "
            f"(mode={fault.mode}, drop_sends={fault.drop_sends})",
            "crash",
        )
        _retire_wal(unit)
        if unit.obs is not None:
            unit.obs.crash(fault.event_index, fault.mode, fault.drop_sends)
        recovered = recover(unit.wal_dir, obs=unit.obs)
        unit.metrics.bump("crashes")
        _incarnate(
            unit,
            recovered.algorithm,
            reissue=recovered.reissue,
            event_index=fault.event_index,
        )
        info: Dict[str, object] = {
            "event_index": fault.event_index,
            "mode": fault.mode,
            "drop_sends": fault.drop_sends,
            "snapshot_lsn": recovered.snapshot_lsn,
            "replayed": recovered.replayed,
            "reissued": len(recovered.reissue),
        }
        detail = (
            f"recovered from snapshot lsn {recovered.snapshot_lsn} + "
            f"{recovered.replayed} replayed record(s), "
            f"{len(recovered.reissue)} re-issued query(ies)"
        )
        if plan is not None:
            info = {"shard": unit.shard, **info}
            detail = f"{unit.title} {detail}"
        info["virtual_time"] = transport.now()
        crashes.append(info)
        recorder.event(W_REC, detail, "recover")

    try:
        for unit in units:
            _incarnate(unit, unit.algorithm)
        client_actors = [
            ClientActor(
                name,
                transport,
                warehouse,
                recorder,
                reads=client_reads,
                seed=seed + 101 + i,
                obs=obs,
            )
            for i, name in enumerate(client_names)
        ]
        reader_actors: List[ReadClientActor] = []
        reader = None
        if read_workload is not None:
            # Over the unit or the facade, never the caller's algorithm:
            # a crash re-points the unit at the recovered incarnation.
            reader = reader_for(warehouse)
            reader_actors.append(
                ReadClientActor(
                    "reader-0",
                    cache,
                    reader,
                    read_workload,
                    verify=verify_reads,
                    metrics=ActorMetrics("reader-0", "reader"),
                )
            )
        started = time.perf_counter()
        asyncio.run(
            _drive(
                transport,
                units,
                source_actors,
                client_actors + reader_actors,
                _restart,
            )
        )
        wall_seconds = time.perf_counter() - started
    finally:
        # Flush and unlock on every exit path: a failed run that kept its
        # ``wal.lock`` would make the directory unopenable in this process.
        for unit in units:
            _retire_wal(unit)

    last_update_at = max(actor.last_update_at for actor in source_actors)
    metrics = {actor.metrics.name: actor.metrics for actor in source_actors}
    for unit in units:
        metrics[unit.metrics.name] = unit.metrics
    for client in client_actors + reader_actors:
        metrics[client.name] = client.metrics

    result = RuntimeResult(
        trace=recorder.trace,
        metrics=metrics,
        channel_stats=transport.stats(),
        updates=sum(len(updates) for updates in workloads.values()),
        quiesce_latency=max(0.0, transport.now() - last_update_at),
        virtual_duration=transport.now(),
        wall_seconds=wall_seconds,
        observations={c.name: c.observations for c in client_actors},
        final_view=warehouse.view_state(),
        crashes=crashes,
        wal_stats=wal_totals if wal_dir is not None else None,
        action_log=recorder.action_log,
        per_source_states=recorder.per_source_states,
        shard_info=shard_info(plan, partitioner, units) if plan is not None else None,
        serving=serving_report(cache, reader),
        read_results={r.name: r.results for r in reader_actors},
        read_mismatches=[m for r in reader_actors for m in r.mismatches],
    )
    if obs is not None:
        obs.finalize(result, units)
    return result


def _held_work(algorithm: object) -> Dict[str, object]:
    """Gauges of what is not quiescent: the algorithm, or a catalog's members."""
    members = getattr(algorithm, "algorithms", None)
    if members is None:
        return algorithm.gauges()
    return {
        name: member.gauges()
        for name, member in members.items()
        if not member.is_quiescent()
    }


async def _drive(
    transport: InMemoryTransport,
    units: Sequence[WarehouseUnit],
    source_actors: Sequence[SourceActor],
    client_actors: Sequence["ClientActor | ReadClientActor"],
    restart: Callable[[WarehouseUnit, WarehouseCrashed], None],
) -> None:
    # Task-creation order is part of the schedule: sources, units, clients, readers.
    tasks = [asyncio.ensure_future(actor.run()) for actor in source_actors]

    async def _supervise(unit: WarehouseUnit) -> None:
        # Each iteration is one incarnation of this unit.  A crash (only
        # the unit holding the crash run can raise one) rebuilds the
        # actor and re-enters its run loop; a clean return means the
        # transport closed.
        while True:
            try:
                await unit.actor.run()
                return
            except WarehouseCrashed as fault:
                restart(unit, fault)

    tasks += [asyncio.ensure_future(_supervise(unit)) for unit in units]
    client_tasks = [asyncio.ensure_future(actor.run()) for actor in client_actors]

    try:
        # Clients perform a bounded number of reads; wait them out first.
        if client_tasks:
            await asyncio.gather(*client_tasks)
        # Then poll for global quiescence: workloads drained, every
        # channel empty, every unit holding no deferred work.  Every poll
        # iteration yields, letting all ready actors take a step.
        for _ in range(_MAX_POLLS):
            await next_turn()
            if any(task.done() for task in tasks):
                break  # an actor died early; surface its exception below
            if (
                all(actor.workload_done for actor in source_actors)
                and transport.total_pending() == 0
            ):
                stalled = [unit for unit in units if not unit.is_quiescent()]
                if not stalled:
                    break
                # Every actor is idle and no message is in flight, so
                # nothing can ever arrive to finish the work still held.
                held = "; ".join(
                    f"{unit.title} {_held_work(unit.algorithm)}" for unit in stalled
                )
                raise SimulationError(
                    f"runtime cannot quiesce: workloads drained, clients finished "
                    f"and no message pending, yet work remains at {held} — "
                    f"deferred families (batch-eca, deferred-eca) flush only on a "
                    f"client refresh that follows the last update"
                )
        else:
            raise SimulationError(
                f"runtime did not quiesce within {_MAX_POLLS} polls "
                f"(pending={transport.total_pending()})"
            )
    finally:
        transport.close()
        outcome = await asyncio.gather(*tasks, *client_tasks, return_exceptions=True)
        errors = [
            result
            for result in outcome
            if isinstance(result, Exception)
            and not isinstance(result, asyncio.CancelledError)
        ]
        # A TransportClosed is a consequence of the close() above; when an
        # actor raised something else, that is the root cause to surface.
        errors.sort(key=lambda error: isinstance(error, TransportClosed))
        if errors:
            raise errors[0]
