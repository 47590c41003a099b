"""The five benchmark workloads.

Each workload is a pair of functions: ``setup(seed, params)`` builds the
sources, the initial materialized views and the update/read streams from
the seed, and ``run(inputs, params, measured)`` drives the library over
them and returns an :class:`Outcome`.  The library only ever sees the
generated inputs.

Library entry points are called through their *module* (``harness.
run_concurrent``, ``recovery.recover``) so that the traced pass, which
patches those module attributes, sees the same calls.

Why these five (the table in ``README.md`` has the long form):

- ``eca_paced``    — updates spaced so UQS stays empty: relational
  *evaluation* and ``apply_delta`` do the work, ``Q<U>`` construction
  almost none.
- ``eca_storm``    — updates outrun answers: ``Q<U>`` *construction* does
  the work.  Mirror image of ``eca_paced``.
- ``wal_crash``    — WAL + snapshots + wire codec + one mid-UQS crash.
- ``fanin_sharded``— 64 tiny views on 4 shards: the only workload where
  catalog, planner, dispatch, router and event-loop overhead register.
- ``read_storm``   — reads beside writes on the serving tier, key space
  6x the cache.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from repro.core.eca import ECA
from repro.costmodel.counters import CostRecorder
from repro.costmodel.parameters import PaperParameters
from repro.durability import recovery
from repro.durability.crash import CrashPolicy
from repro.durability.wal import LOCK_FILENAME
from repro.kernel.sync import SyncKernel
from repro.obs.instrument import Observability
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import harness
from repro.serving import ServingCache, reader_for
from repro.simulation.driver import Simulation
from repro.simulation.schedules import UPDATE, BestCaseSchedule, RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.example6 import build_example6
from repro.workloads.random_gen import random_workload, zipf_read_workload

#: Scratch space for WAL directories: inside the checkout, never /tmp.
TMP_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_tmp"
)

#: Interleaving seed handed to ``run_concurrent`` / ``RandomSchedule``.
#: Pacing is a *parameter* of a workload (like ``max_burst``), not part of
#: its seeded data: the burst pattern alone moves ``eca_storm`` wall time
#: by ~20 %, which would drown every bound when seeds differ.
PACING_SEED = 0


@dataclass
class Outcome:
    """What one run of one workload produced (times in seconds)."""

    updates: int
    #: Wall time of the maintenance run (``updates_per_s`` denominator).
    maintain_s: float
    #: Messages / bytes on warehouse->source and source->warehouse channels.
    msgs_to_source: int
    msgs_to_warehouse: int
    bytes_sent: int
    #: Per-operation wall times (percentiles are taken over these).
    refresh_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    recover_s: List[float] = field(default_factory=list)
    wal_bytes: int = 0
    #: ``(check name, passed)`` — every output check this run performed.
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    #: Counters the program itself keeps (planner, shards, cache, crash).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Machine slowdown probed around this run (``bench/probe.py``; the
    #: runner fills it in).  Every time above is raw wall time; divided by
    #: this it is seconds at reference speed.
    slowdown: float = 1.0


@dataclass
class Workload:
    name: str
    why: str
    #: Every size and knob, recorded verbatim in the JSON record.
    params: Dict[str, object]
    setup: Callable[[int, Dict[str, object]], object]
    #: ``run(inputs, params, measured)``; ``measured()`` is a context manager
    #: the workload puts around the calls it times, so the traced pass
    #: attributes spans to the run and not to set-up or output checks.
    run: Callable[[object, Dict[str, object], Callable[[], ContextManager]], Outcome]
    #: The same run with ``repro.obs`` recording (prices ``obs.overhead_ratio``
    #: in the traced pass); only the workload where its cost is visible has one.
    run_with_obs: Optional[Callable[..., Outcome]] = None

    def scaled(self, divisor: int) -> Dict[str, object]:
        """``params`` with the size knobs divided (``--quick`` smoke runs)."""
        out = dict(self.params)
        for key in SIZE_KNOBS:
            if key in out:
                out[key] = max(2, int(out[key]) // divisor)
        return out


#: Parameters ``--quick`` divides; everything else is kept.
SIZE_KNOBS = ("cardinality", "k", "rows", "updates_per_source", "skip")


def _sizer() -> Callable[[object], int]:
    """The paper's B: S bytes per answer tuple, nothing else."""
    return CostRecorder().message_size


def _channel_totals(stats: Dict[str, object]) -> Tuple[int, int, int]:
    """(msgs to sources, msgs to warehouse, bytes) from transport stats."""
    to_source = sum(s.sent for name, s in stats.items() if name.startswith("wh->"))
    total = sum(s.sent for s in stats.values())
    return to_source, total - to_source, sum(s.sent_bytes for s in stats.values())


# --------------------------------------------------------------------- #
# Example 6 (single view, single source): eca_paced, eca_storm, wal_crash
# --------------------------------------------------------------------- #


def _setup_example6(seed: int, params: Dict[str, object]):
    setup = build_example6(
        PaperParameters(cardinality=params["cardinality"]), k=params["k"], seed=seed
    )
    source = MemorySource(setup.schemas, setup.initial)
    algorithm = ECA(setup.view, evaluate_view(setup.view, source.snapshot()))
    return setup, source, algorithm


def _run_eca_paced(inputs, params, measured) -> Outcome:
    setup, source, algorithm = inputs
    recorder = CostRecorder()
    sim = Simulation(source, algorithm, setup.workload, recorder=recorder)
    schedule = BestCaseSchedule()
    refresh: List[float] = []
    executed = 0
    # BestCaseSchedule drains warehouse and source before the next update,
    # so update-to-update is exactly one update's four steps
    # (S_up, W_up, S_qu, W_ans) — the refresh latency.
    with measured():
        began = started = time.perf_counter()
        while True:
            available = sim.available_actions()
            if not available:
                break
            action = schedule.choose(available)
            if action == UPDATE:
                now = time.perf_counter()
                if executed:
                    refresh.append(now - started)
                started = now
                executed += 1
            sim.step(action)
        ended = time.perf_counter()
    refresh.append(ended - started)
    final = algorithm.view_state()
    return Outcome(
        updates=executed,
        maintain_s=ended - began,
        msgs_to_source=sim.to_source.sent_count,
        msgs_to_warehouse=sim.to_warehouse.sent_count,
        bytes_sent=sim.to_source.sent_bytes + sim.to_warehouse.sent_bytes,
        refresh_s=refresh,
        checks=[
            ("view==recompute", final == evaluate_view(setup.view, source.snapshot())),
            ("uqs_stayed_empty", recorder.terms_evaluated == executed),
        ],
        counters={"warehouse.mv_rows": final.total_count()},
    )


def _source_state(sources) -> Dict[str, object]:
    """Every relation of every source, as the recompute oracle wants it."""
    state: Dict[str, object] = {}
    for source in sources.values():
        state.update(source.snapshot())
    return state


def _finish_concurrent(result, view_like, sources, counters=None) -> Outcome:
    """Fold a ``RuntimeResult`` into an :class:`Outcome` and check the view."""
    recomputed = evaluate_view(view_like, _source_state(sources))
    to_source, to_warehouse, sent_bytes = _channel_totals(result.channel_stats)
    merged = {"warehouse.mv_rows": result.final_view.total_count()}
    merged.update(counters or {})
    return Outcome(
        updates=result.updates,
        maintain_s=result.wall_seconds,
        msgs_to_source=to_source,
        msgs_to_warehouse=to_warehouse,
        bytes_sent=sent_bytes,
        checks=[("view==recompute", result.final_view == recomputed)],
        counters=merged,
    )


def _concurrent(measured, sources, algorithm, workload, **options):
    """``run_concurrent`` inside the measured region, trace snapshots off."""
    with measured():
        return harness.run_concurrent(
            sources,
            algorithm,
            workload,
            seed=PACING_SEED,
            record_trace=False,
            **options,
        )


def _run_eca_storm(inputs, params, measured) -> Outcome:
    setup, source, algorithm = inputs
    result = _concurrent(
        measured,
        source,
        algorithm,
        setup.workload,
        max_burst=params["max_burst"],
        sizer=_sizer(),
    )
    return _finish_concurrent(result, setup.view, {"source": source})


def _run_wal_crash(inputs, params, measured) -> Outcome:
    setup, source, algorithm = inputs
    os.makedirs(TMP_ROOT, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="wal-", dir=TMP_ROOT)
    try:
        result = _concurrent(
            measured,
            source,
            algorithm,
            setup.workload,
            max_burst=params["max_burst"],
            wal_dir=wal_dir,
            wal_fsync=False,
            snapshot_every=params["snapshot_every"],
            wire_codec=params["wire_codec"],
            crash=CrashPolicy(mode="mid-uqs", skip=params["skip"], max_crashes=1),
        )
        crash = result.crashes[0] if result.crashes else {}
        outcome = _finish_concurrent(
            result,
            setup.view,
            {"source": source},
            counters={
                "durability.recover.replayed": crash.get("replayed", 0),
                "durability.recover.reissued": crash.get("reissued", 0),
            },
        )
        outcome.checks.append(("crashed_once", len(result.crashes) == 1))
        recovered = None
        with measured():
            for _ in range(params["recoveries"]):
                started = time.perf_counter()
                recovered = recovery.recover(wal_dir)
                outcome.recover_s.append(time.perf_counter() - started)
        outcome.checks.append(
            ("recovered==final", recovered.algorithm.view_state() == result.final_view)
        )
        outcome.wal_bytes = sum(
            os.path.getsize(os.path.join(wal_dir, name))
            for name in os.listdir(wal_dir)
            if name != LOCK_FILENAME
        )
        return outcome
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Keyed two-relation joins behind a catalog: fanin_sharded, read_storm
# --------------------------------------------------------------------- #


def _keyed_source(prefix: str, rows: int, fanout: int, rng: random.Random):
    """``r1(W, X)`` keyed on W and ``r2(X, Y)`` keyed on Y.

    Every X value occurs ``fanout`` times in r2, so every r1 row joins and
    each view holds one serving key (W) per r1 row.
    """
    schemas = [
        RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
        RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
    ]
    distinct = max(1, rows // fanout)
    initial = {
        f"{prefix}r1": [(w, rng.randrange(distinct)) for w in range(rows)],
        f"{prefix}r2": [(y % distinct, y) for y in range(rows)],
    }
    return schemas, initial


def _setup_catalog(seed: int, params: Dict[str, object], projections):
    """N sources, each with one view per entry of ``projections``."""
    rng = random.Random(seed)
    sources: Dict[str, MemorySource] = {}
    algorithms: Dict[str, ECA] = {}
    workloads = {}
    for index in range(params["sources"]):
        name = f"s{index}"
        schemas, initial = _keyed_source(name, params["rows"], params["fanout"], rng)
        source = MemorySource(schemas, initial)
        sources[name] = source
        state = source.snapshot()
        for slot, projection in enumerate(projections):
            view = View.natural_join(f"V{index}_{slot}", schemas, projection)
            algorithms[view.name] = ECA(view, evaluate_view(view, state))
        workloads[name] = random_workload(
            schemas,
            params["updates_per_source"],
            seed=rng.randrange(2**31),
            initial=initial,
            domain=params["rows"] + params["spare_keys"],
            respect_keys=True,
        )
    catalog = WarehouseCatalog(
        algorithms, share_compensation=params["share_compensation"]
    )
    return sources, catalog, workloads


def _setup_fanin(seed: int, params):
    return _setup_catalog(seed, params, [("W", "Y")] * params["views_per_source"])


def _run_fanin_sharded(
    inputs, params, measured, obs: Optional[Observability] = None
) -> Outcome:
    sources, catalog, workloads = inputs
    result = _concurrent(
        measured,
        sources,
        catalog,
        workloads,
        shards=params["shards"],
        partitioner=params["partitioner"],
        max_burst=params["max_burst"],
        sizer=_sizer(),
        obs=obs,
    )
    issued = saved = 0
    for shard_catalog in result.shard_info["algorithms"].values():
        shard_issued, shard_saved = shard_catalog.shared_query_stats()
        issued += shard_issued
        saved += shard_saved
    events = [
        result.metrics[f"shard{shard}"].received
        for shard in result.shard_info["shard_ids"]
    ]
    mean = sum(events) / len(events)
    return _finish_concurrent(
        result,
        catalog,
        sources,
        counters={
            "warehouse.planner.issued": issued,
            "warehouse.planner.saved": saved,
            "sharding.events_per_shard_max": max(events),
            "sharding.events_per_shard_mean": mean,
            "sharding.skew": max(events) / mean,
        },
    )


def _run_fanin_with_obs(inputs, params, measured) -> Outcome:
    """``fanin_sharded`` with the program's own spans and metrics on."""
    return _run_fanin_sharded(
        inputs, params, measured, Observability(trace=True, sharded=True)
    )


def _setup_read_storm(seed: int, params):
    sources, catalog, workloads = _setup_catalog(
        seed, params, [("W", "Y"), ("Y", "W")]
    )
    # Interleave the per-source streams into the one global order SyncKernel
    # executes; respect_keys validity is per relation, so any merge is valid.
    merged = [
        update
        for group in zip(*(workloads[name] for name in sorted(workloads)))
        for update in group
    ]
    reader = reader_for(catalog)
    keys = reader.current_keys()
    # An update with a relevant relation takes 2 + 2 * views_per_source
    # kernel steps; generate reads for every one of them.
    steps = len(merged) * (2 + 2 * 2)
    reads = zipf_read_workload(
        keys,
        steps * params["reads_per_step"],
        theta=params["theta"],
        seed=random.Random(seed).randrange(2**31),
    )
    return sources, catalog, merged, reader, reads, len(keys)


def _run_read_storm(inputs, params, measured) -> Outcome:
    sources, catalog, merged, reader, reads, n_keys = inputs
    bound = params["staleness_bound"]
    cache = ServingCache(
        capacity=params["cache_capacity"], staleness_bound=bound, policy="lru"
    )
    kernel = SyncKernel(sources, catalog, merged, recorder=CostRecorder(), cache=cache)
    schedule = RandomSchedule(PACING_SEED)
    per_step = params["reads_per_step"]
    clock = time.perf_counter
    step_time = 0.0
    read_s: List[float] = []
    max_lag = 0
    cursor = 0
    # One closed-loop client: after every kernel step it issues its next
    # reads back to back, each waiting for the previous one.
    with measured():
        while True:
            available = kernel.available_actions()
            if not available:
                break
            action = schedule.choose(available)
            started = clock()
            kernel.step(action)
            step_time += clock() - started
            for view_name, key in reads[cursor : cursor + per_step]:
                loader = reader.loader(view_name, key)
                started = clock()
                served = cache.read(view_name, key, loader)
                read_s.append(clock() - started)
                if served.lag > max_lag:
                    max_lag = served.lag
            cursor += per_step
    state = _source_state(sources)
    final = catalog.view_state()
    report = cache.report()
    issued, saved = catalog.shared_query_stats()
    channels = list(kernel.inbound.values()) + list(kernel.outbound.values())
    to_source = sum(c.sent_count for c in kernel.outbound.values())
    return Outcome(
        updates=len(merged),
        maintain_s=step_time,
        msgs_to_source=to_source,
        msgs_to_warehouse=sum(c.sent_count for c in channels) - to_source,
        bytes_sent=sum(c.sent_bytes for c in channels),
        read_s=read_s,
        checks=[
            ("view==recompute", final == catalog.evaluate_oracle(state)),
            ("served_lag<=bound", max_lag <= bound),
            ("every_read_served", len(read_s) == report["reads"]),
            ("keyspace>cache", n_keys > params["cache_capacity"]),
        ],
        counters={
            "warehouse.mv_rows": final.total_count(),
            "warehouse.planner.issued": issued,
            "warehouse.planner.saved": saved,
            "serving.hit_rate": report["hit_rate"],
            "serving.stale_served": report["stale_served"],
            "serving.evictions": report["evictions"],
            "serving.max_lag": report["max_served_lag"],
        },
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eca_paced",
            "paper's best case: UQS stays empty, so relational evaluation and "
            "apply_delta do the work and Q<U> construction almost none",
            {"cardinality": 800, "k": 300, "algorithm": "eca",
             "frontend": "Simulation/SyncKernel", "schedule": "BestCaseSchedule"},
            _setup_example6,
            _run_eca_paced,
        ),
        Workload(
            "eca_storm",
            "paper's worst case: updates outrun answers, UQS grows, and "
            "building compensating queries dominates; mirror of eca_paced",
            {"cardinality": 100, "k": 96, "max_burst": 8, "algorithm": "eca",
             "frontend": "run_concurrent", "pacing_seed": PACING_SEED},
            _setup_example6,
            _run_eca_storm,
        ),
        Workload(
            "wal_crash",
            "WAL appends, snapshot every 8 records, frame wire codec and one "
            "mid-UQS crash: durability and wire encoding do most of the work",
            {"cardinality": 400, "k": 96, "max_burst": 4, "snapshot_every": 8,
             "wire_codec": "frame", "skip": 24, "recoveries": 7,
             "flush_policy": "flush to OS per append, no fsync",
             "algorithm": "eca", "frontend": "run_concurrent",
             "pacing_seed": PACING_SEED},
            _setup_example6,
            _run_wal_crash,
        ),
        Workload(
            "fanin_sharded",
            "many small events over 64 tiny views on 4 shards: the one workload "
            "where catalog, planner, dispatch, router and event-loop overhead "
            "register beside query construction",
            {"sources": 4, "views_per_source": 16, "rows": 24, "fanout": 4,
             "spare_keys": 40, "updates_per_source": 60, "shards": 4,
             "partitioner": "hash", "max_burst": 2, "share_compensation": True,
             "algorithm": "eca", "frontend": "run_concurrent(shards=4)",
             "pacing_seed": PACING_SEED},
            _setup_fanin,
            _run_fanin_sharded,
            _run_fanin_with_obs,
        ),
        Workload(
            "read_storm",
            "reads beside writes on the serving tier with a key space 6x the "
            "cache: a miss is a full view scan, a hit a dict lookup",
            {"sources": 2, "views_per_source": 2, "rows": 100, "fanout": 4,
             "spare_keys": 28, "updates_per_source": 120, "reads_per_step": 5,
             "theta": 1.0, "cache_capacity": 64, "staleness_bound": 2,
             "share_compensation": False, "clients": "1 closed-loop",
             "algorithm": "eca", "frontend": "SyncKernel",
             "schedule": "RandomSchedule", "pacing_seed": PACING_SEED},
            _setup_read_storm,
            _run_read_storm,
        ),
    )
}
