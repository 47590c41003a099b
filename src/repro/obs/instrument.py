"""The hook surface the runtime and durability layers call.

One :class:`Observability` object bundles a causal :class:`Tracer` and a
metrics :class:`Registry` and exposes *named hooks* — ``source_update``,
``wh_event_begin``, ``wal_append``, ``crash`` … — so the instrumented
code never manipulates spans or instruments directly.  Every hook site
is guarded by ``if obs is not None`` in the caller, which is the entire
cost of the feature when disabled (``bench/run.py`` reports the enabled
cost as ``obs.overhead_ratio``).

Span vocabulary produced by the runtime instrumentation:

=================  ==========  ============================================
span name          kind        emitted when
=================  ==========  ============================================
``source.update``  update      a source executes one workload update (S_up)
``source.answer``  answer      a source evaluates a query (S_qu)
``wh.update``      wh_event    the warehouse processes an update (W_up)
``wh.answer``      wh_event    the warehouse absorbs an answer (W_ans)
``wh.refresh``     wh_event    the warehouse handles a refresh (W_ref)
``wh.query``       query       an outgoing (possibly compensating) query
``wh.install``     install     COLLECT drained into the view (UQS empty)
``client.refresh`` client      a client asked for a refresh (C_ref)
``client.read``    client      a client sampled the materialized view
``wal.snapshot``   wal         the WAL took a compacting snapshot
``wh.crash``       crash       crash injection killed the warehouse
``wh.recovery``    recovery    snapshot+replay rebuilt the warehouse
=================  ==========  ============================================

Causal links follow :mod:`repro.obs.trace`'s relations: each warehouse
event links ``causes`` to the message span that triggered it; each
``wh.query`` links ``causes`` to the update span it maintains and
``compensates`` to every UQS entry it offsets (Section 5.2's
``Q_j<U_i>`` terms); ``wh.recovery`` links ``recovers`` to the crash.

Each registry series is counted once.  Hooks count live only what no
other store holds: warehouse events, compensating terms, COLLECT
installs, answer sizes, WAL appends and snapshots, and the staleness
lag (which the serving tier reads mid-run).  Everything the run already
counts — ``ActorMetrics``, ``ChannelStats``, ``wal_stats``, the crash
records, each unit's final algorithm — :meth:`Observability.finalize`
reads once at the end, so the exported JSON reconciles exactly with
``RuntimeResult.metrics_table()``.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence, Tuple

from repro.consistency.staleness import LiveStaleness
from repro.obs.metrics import Counter, Registry, ingest_mapping
from repro.obs.trace import (
    CAUSES,
    COMPENSATES,
    DEFAULT_CAPACITY,
    INSTALLS,
    RECOVERS,
    Span,
    Tracer,
)

#: Buckets for answer-size histograms (tuples per answer).
ANSWER_BUCKETS = (0, 1, 2, 5, 10, 25, 100, 1000)


class Observability:
    """Tracer + registry + the named hooks, one object per run.

    Parameters
    ----------
    trace:
        Record spans (disable to keep metrics only).
    capacity:
        Tracer ring-buffer size in spans.
    sharded:
        Declare every warehouse-side instrument with an extra ``shard``
        label so per-shard series never collide.  The warehouse hooks are
        then only valid on :meth:`shard_view` copies (which carry the
        label value); source/client hooks stay on this root object.
        ``False`` (the default) produces byte-identical series names and
        label sets to the pre-sharding exporter.
    """

    def __init__(
        self,
        trace: bool = True,
        capacity: int = DEFAULT_CAPACITY,
        sharded: bool = False,
    ) -> None:
        self.trace_enabled = trace
        self.sharded = sharded
        self.tracer = Tracer(capacity=capacity)
        self.registry = Registry()
        registry = self.registry
        #: Extra label dimension on warehouse-side instruments; empty in
        #: the unsharded layout, so every existing series is unchanged.
        shard_dim: Tuple[str, ...] = ("shard",) if sharded else ()
        #: Label *values* every warehouse-side inc/set passes along —
        #: empty on the root, ``{"shard": "<i>"}`` on a shard view.
        self._shard_labels: Dict[str, str] = {}
        #: The warehouse unit's ``id_slice``: query and answer spans are
        #: bound under the id the source saw, so the links across the
        #: source hop resolve from a shard view as they do from the root.
        self._id_slice: Tuple[int, int] = (0, 1)
        self._events = registry.counter(
            "repro_warehouse_events_total",
            "atomic warehouse events",
            ("kind",) + shard_dim,
        )
        self._queries = registry.counter(
            "repro_queries_sent_total",
            "query requests shipped to sources",
            ("reissued",) + shard_dim,
        )
        self._compensations = registry.counter(
            "repro_compensating_terms_total",
            "UQS entries compensated against across all queries (Section 5.2)",
            shard_dim,
        )
        self._installs = registry.counter(
            "repro_collect_installs_total", "COLLECT flushes into the view", shard_dim
        )
        self._updates = registry.counter(
            "repro_source_updates_total", "updates executed", ("source",)
        )
        self._answers = registry.counter(
            "repro_source_answers_total", "queries answered", ("source",)
        )
        self._answer_tuples = registry.histogram(
            "repro_answer_tuples",
            "tuples per query answer",
            ("source",),
            buckets=ANSWER_BUCKETS,
        )
        self._reads = registry.counter(
            "repro_client_reads_total", "view reads", ("client",)
        )
        self._wal_appends = registry.counter(
            "repro_wal_append_total", "WAL records appended", ("type",) + shard_dim
        )
        self._wal_snapshots = registry.counter(
            "repro_wal_snapshot_total", "compacting snapshots taken", shard_dim
        )
        self._crashes = registry.counter(
            "repro_warehouse_crashes_total",
            "injected warehouse crashes",
            ("mode",) + shard_dim,
        )
        self._recoveries = registry.counter(
            "repro_warehouse_recoveries_total", "successful WAL recoveries", shard_dim
        )
        self._replayed = registry.counter(
            "repro_recovery_replayed_total",
            "recv records replayed during recovery",
            shard_dim,
        )
        self._uqs_gauge = registry.gauge(
            "repro_uqs_size",
            "unanswered query set size after the last event",
            shard_dim,
        )
        self._staleness_gauge = registry.gauge(
            "repro_staleness_lag_updates",
            "source updates executed but not yet reflected at the warehouse",
            shard_dim,
        )
        self._algo_gauges = registry.gauge(
            "repro_algorithm_gauge",
            "algorithm-reported in-flight state (see WarehouseAlgorithm.gauges)",
            ("gauge",) + shard_dim,
        )
        self._shared_issued = registry.gauge(
            "repro_shared_queries_issued",
            "distinct compensating queries the catalog planner shipped",
            shard_dim,
        )
        self._shared_saved = registry.gauge(
            "repro_shared_queries_saved",
            "member compensating queries absorbed into an already-issued "
            "shared query (source round trips avoided)",
            shard_dim,
        )
        self._staleness = LiveStaleness()
        self._last_crash_span: Optional[Span] = None

    def shard_view(self, shard: int, shards: int = 1) -> "Observability":
        """A per-shard facade over the same tracer and registry.

        The copy shares every instrument but stamps ``shard=<i>`` on all
        warehouse-side series and tracks its *own* staleness basis (the
        per-shard lag between routed and processed updates — meaningful
        even though each shard sees only a sparse subset of the global
        serial order, because :class:`LiveStaleness` is max-serial based).
        ``shards`` is the plan's shard count: with ``shard`` it is the
        unit's slice of the query-id space.
        """
        if not self.sharded:
            raise ValueError("shard_view() requires Observability(sharded=True)")
        if not 0 <= shard < shards:
            raise ValueError(f"shard {shard} is outside range({shards})")
        view = copy.copy(self)
        view._shard_labels = {"shard": str(shard)}
        view._id_slice = (shard, shards)
        view._staleness = LiveStaleness()
        view._last_crash_span = None
        return view

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach_clock(self, clock) -> None:
        """Use the transport's virtual clock for span timestamps."""
        self.tracer.set_clock(clock)

    # ------------------------------------------------------------------ #
    # Source hooks
    # ------------------------------------------------------------------ #

    def source_update(self, source: str, relation: str, serial: int) -> None:
        """A source executed update ``serial`` against ``relation``."""
        if not self.sharded:
            # Sharded runs track staleness per shard (see update_routed);
            # a single global basis would mix shards into one gauge.
            self._staleness.executed(serial)
            self._staleness_gauge.set(self._staleness.lag())
        if self.trace_enabled:
            span = self.tracer.instant(
                "source.update", "update", source=source, relation=relation, serial=serial
            )
            self.tracer.bind(("U", serial), span)

    def source_answer(self, source: str, query_id: int, tuples: int) -> None:
        """A source evaluated query ``query_id`` (``tuples`` result rows)."""
        self._answer_tuples.observe(tuples, source=source)
        if self.trace_enabled:
            span = self.tracer.instant(
                "source.answer",
                "answer",
                links=((CAUSES, self.tracer.lookup(("Q", query_id))),),
                source=source,
                query_id=query_id,
                tuples=tuples,
            )
            self.tracer.bind(("A", query_id), span)

    # ------------------------------------------------------------------ #
    # Warehouse hooks
    # ------------------------------------------------------------------ #

    def _key(self, tag: str, query_id: int) -> Tuple[str, int]:
        """Tracer key of the unit's (local) ``query_id``, by its wire id
        (:meth:`repro.runtime.actors.WarehouseUnit.wire_id`)."""
        offset, stride = self._id_slice
        return (tag, query_id * stride + offset)

    def update_routed(self, serial: int) -> None:
        """A source's notification of update ``serial`` was routed to this shard.

        Shard views only: marks the update *executed* on the shard's own
        staleness basis, so the per-shard lag gauge measures routed but
        not-yet-processed updates exactly as the unsharded gauge measures
        executed ones.
        """
        self._staleness.executed(serial)
        self._staleness_gauge.set(self._staleness.lag(), **self._shard_labels)

    def staleness_lag(self) -> int:
        """Current update lag on this object's staleness basis.

        Root object in unsharded runs, a :meth:`shard_view` copy in
        sharded ones (each shard tracks its own basis).  The serving tier
        annotates stale-served reads with this — the same number the
        ``repro_staleness_lag_updates`` gauge last exported.
        """
        return self._staleness.lag()

    _EVENT_NAMES = {"W_up": "wh.update", "W_ans": "wh.answer", "W_ref": "wh.refresh"}

    def wh_event_begin(
        self, kind: str, message: object, origin: Optional[str]
    ) -> Optional[Span]:
        """An atomic warehouse event started; returns its span (or None).

        ``kind`` is the trace event kind (``W_up``/``W_ans``/``W_ref``);
        the causal edge resolves through the message's natural identity
        (update serial or query id).
        """
        self._events.inc(kind=kind, **self._shard_labels)
        if not self.trace_enabled:
            return None
        cause = None
        attrs: Dict[str, object] = dict(self._shard_labels)
        serial = getattr(message, "serial", None)
        query_id = getattr(message, "query_id", None)
        if kind == "W_up" and serial is not None:
            # Update serials are global and a notification reaches every
            # interested shard unchanged, so the causal edge to the source
            # span resolves from any shard.
            cause = self.tracer.lookup(("U", serial))
            attrs["serial"] = serial
        elif kind == "W_ans" and query_id is not None:
            cause = self.tracer.lookup(self._key("A", query_id))
            attrs["query_id"] = query_id
        elif kind == "W_ref" and serial is not None:
            attrs["refresh_serial"] = serial
        if origin is not None:
            attrs["origin"] = origin
        name = self._EVENT_NAMES.get(kind, "wh.event")
        return self.tracer.start(name, "wh_event", links=((CAUSES, cause),), **attrs)

    def wh_query_sent(
        self,
        span: Optional[Span],
        query_id: int,
        destination: str,
        compensates: Sequence[int],
        reissued: bool = False,
    ) -> None:
        """The warehouse shipped a query while processing ``span``.

        ``compensates`` names the UQS entries (query ids) that were
        pending when the query was built — exactly the ``Q_j`` whose
        ``Q_j<U_i>`` terms the query subtracts under ECA.
        """
        if compensates:
            self._compensations.inc(len(compensates), **self._shard_labels)
        if not self.trace_enabled:
            return
        links = []
        if span is not None:
            # Tie the query directly to the update span that caused it,
            # not just transitively via its parent event span.
            links.extend((CAUSES, sid) for sid in span.linked(CAUSES))
        links.extend(
            (COMPENSATES, self.tracer.lookup(self._key("Q", qid)))
            for qid in compensates
        )
        child = self.tracer.instant(
            "wh.query",
            "query",
            parent=span,
            links=links,
            query_id=query_id,
            destination=destination,
            compensates=list(compensates),
            reissued=reissued,
            **self._shard_labels,
        )
        self.tracer.bind(self._key("Q", query_id), child)

    def wh_event_end(
        self,
        span: Optional[Span],
        kind: str,
        message: object,
        algorithm: object,
        pending_before: Sequence[int],
    ) -> None:
        """The atomic event finished: close the span, move the staleness lag."""
        pending_after = algorithm.pending_query_ids()
        serial = getattr(message, "serial", None)
        if kind == "W_up" and serial is not None:
            self._staleness.processed(serial)
        self._staleness.pending(len(pending_after))
        self._staleness_gauge.set(self._staleness.lag(), **self._shard_labels)
        installed = bool(pending_before) and not pending_after
        if installed:
            self._installs.inc(**self._shard_labels)
        if not self.trace_enabled:
            return
        if installed and span is not None:
            self.tracer.instant(
                "wh.install",
                "install",
                parent=span,
                links=tuple(
                    (INSTALLS, self.tracer.lookup(self._key("A", qid)))
                    for qid in pending_before
                ),
                drained=len(pending_before),
                **self._shard_labels,
            )
        if span is not None:
            self.tracer.end(span, uqs_after=len(pending_after))

    # ------------------------------------------------------------------ #
    # Client hooks
    # ------------------------------------------------------------------ #

    def client_refresh(self, client: str, serial: int) -> None:
        """A client sent a :class:`RefreshRequest`."""
        if self.trace_enabled:
            self.tracer.instant("client.refresh", "client", client=client, serial=serial)

    def client_read(self, client: str, rows: int) -> None:
        """A client sampled the materialized view (``rows`` tuples seen)."""
        if self.trace_enabled:
            self.tracer.instant("client.read", "client", client=client, rows=rows)

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def wal_append(self) -> None:
        """One WAL record hit the log (metrics only; appends are hot).
        Every record is a ``recv``, the type recovery replays."""
        self._wal_appends.inc(type="recv", **self._shard_labels)

    def wal_snapshot(self, lsn: int) -> None:
        """The WAL took a compacting snapshot as of ``lsn``."""
        self._wal_snapshots.inc(**self._shard_labels)
        if self.trace_enabled:
            self.tracer.instant("wal.snapshot", "wal", lsn=lsn, **self._shard_labels)

    def crash(self, event_index: int, mode: str, drop_sends: bool) -> None:
        """Crash injection killed the warehouse after ``event_index``."""
        if self.trace_enabled:
            self._last_crash_span = self.tracer.instant(
                "wh.crash",
                "crash",
                event_index=event_index,
                mode=mode,
                drop_sends=drop_sends,
                **self._shard_labels,
            )

    def recovery(
        self, snapshot_lsn: int, replayed: int, reissued: int, torn: int = 0
    ) -> None:
        """Snapshot+replay rebuilt the warehouse (links back to the crash)."""
        if self.trace_enabled:
            crash = self._last_crash_span
            self.tracer.instant(
                "wh.recovery",
                "recovery",
                links=((RECOVERS, crash.span_id if crash is not None else None),),
                snapshot_lsn=snapshot_lsn,
                replayed=replayed,
                reissued=reissued,
                torn=torn,
                **self._shard_labels,
            )

    # ------------------------------------------------------------------ #
    # End of run
    # ------------------------------------------------------------------ #

    def finalize(self, result: object, units: Sequence[object]) -> Registry:
        """Write what the run already counted into the registry, once.

        ``result`` is the :class:`RuntimeResult`, ``units`` the run's
        :class:`~repro.runtime.actors.WarehouseUnit` list.  After this,
        ``repro_actor_*_total{actor=...}`` and
        ``repro_channel_*_total{channel=...}`` reproduce
        ``result.metrics_table()`` exactly (same message/byte counts) —
        the reconciliation the integration tests assert.  A counter read
        here appears only when its count is non-zero; a unit's gauges
        only when the unit ran an event.
        """
        for name, metrics in result.metrics.items():
            fields = metrics.as_dict()
            role = fields.pop("role")
            # Sharded rows carry a "shard" field; the actor name already
            # distinguishes per-shard series ("shard0", ...), and keeping
            # the ingest label set uniform across actors is what lets one
            # counter family hold every row.
            fields.pop("shard", None)
            ingest_mapping(
                self.registry,
                "repro_actor",
                fields,
                help_text="per-actor accounting (ActorMetrics)",
                labels={"actor": name, "role": role},
            )
            if role == "source":
                _count(self._updates, fields["updates_applied"], source=name)
                _count(self._answers, fields["queries_answered"], source=name)
            elif role == "client":
                _count(self._reads, fields["reads"], client=name)
        for unit in units:
            labels = self._labels(unit.shard)
            reissued = unit.metrics.events.get("reissued_queries", 0)
            _count(self._queries, unit.metrics.sent - reissued, reissued="no", **labels)
            _count(self._queries, reissued, reissued="yes", **labels)
            if not unit.actor.event_index:
                continue
            algorithm = unit.algorithm
            self._uqs_gauge.set(len(algorithm.pending_query_ids()), **labels)
            for gauge, value in algorithm.gauges().items():
                self._algo_gauges.set(value, gauge=gauge, **labels)
            shared_stats = getattr(algorithm, "shared_query_stats", None)
            if shared_stats is not None:
                issued, saved = shared_stats()
                self._shared_issued.set(issued, **labels)
                self._shared_saved.set(saved, **labels)
        for crash in result.crashes:
            labels = self._labels(crash.get("shard"))
            self._crashes.inc(mode=crash["mode"], **labels)
            self._recoveries.inc(**labels)
            # Present wherever a recovery ran, even one that replayed 0.
            self._replayed.inc(crash["replayed"], **labels)
        for name, stats in result.channel_stats.items():
            ingest_mapping(
                self.registry,
                "repro_channel",
                stats.as_dict(),
                help_text="per-channel transport accounting (ChannelStats)",
                labels={"channel": name},
            )
        if getattr(result, "wal_stats", None):
            wal = result.wal_stats
            self.registry.gauge(
                "repro_wal_records", "WAL records across all incarnations"
            ).set(wal["records"])
            self.registry.gauge(
                "repro_wal_snapshots", "snapshots across all incarnations"
            ).set(wal["snapshots"])
            self.registry.gauge("repro_wal_last_lsn", "final LSN").set(wal["last_lsn"])
        run = self.registry.gauge("repro_run", "run-level outcomes", ("stat",))
        run.set(result.updates, stat="updates")
        run.set(result.quiesce_latency, stat="quiesce_latency")
        run.set(result.virtual_duration, stat="virtual_duration")
        run.set(result.wall_seconds, stat="wall_seconds")
        return self.registry

    def _labels(self, shard: Optional[int]) -> Dict[str, str]:
        """The ``shard`` label of a unit or crash record, when sharded."""
        return {"shard": str(shard)} if self.sharded else {}

    def __repr__(self) -> str:
        return (
            f"Observability(trace={self.trace_enabled}, "
            f"spans={len(self.tracer)}, registry={self.registry!r})"
        )


def _count(counter: Counter, count: int, **labels: object) -> None:
    """Write a stored count as a counter series, which exists only when
    non-zero (as one counted live would)."""
    if count:
        counter.inc(count, **labels)
