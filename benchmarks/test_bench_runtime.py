"""Runtime benchmarks: concurrent harness vs the synchronous driver.

Measures what the concurrent runtime costs and buys:

- end-to-end throughput of ``run_concurrent`` against the synchronous
  ``Simulation`` driver on an identical single-source ECA workload (both
  must settle on the same final view);
- quiesce latency (virtual time from the last update to a quiet
  warehouse) as the fault plan's drop rate grows;
- throughput scaling as sources and clients are added.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` for the
regenerated tables).
"""

from __future__ import annotations

from repro.consistency import check_trace
from repro.core.eca import ECA
from repro.experiments.report import render_table
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.simulation.driver import Simulation
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

from _bench_util import emit

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
K = 24


def fresh_eca():
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    warehouse = ECA(view, evaluate_view(view, source.snapshot()))
    return view, source, warehouse


def workload(k=K, seed=13):
    return random_workload(SCHEMAS, k, seed=seed, initial=INITIAL)


def test_bench_concurrent_vs_sync_same_answer(benchmark):
    """Both drivers must settle on the same (eval-anytime) final view."""

    def run_concurrent_driver():
        view, source, warehouse = fresh_eca()
        result = run_concurrent(source, warehouse, workload(), clients=2, seed=1)
        return view, result

    view, result = benchmark(run_concurrent_driver)
    assert check_trace(view, result.trace).strongly_consistent

    sync_view, sync_source, sync_warehouse = fresh_eca()
    sync_trace = Simulation(sync_source, sync_warehouse, workload()).run(
        RandomSchedule(seed=1)
    )
    assert check_trace(sync_view, sync_trace).strongly_consistent
    assert result.final_view == sync_warehouse.view_state()

    emit(
        render_table(
            "Concurrent vs synchronous driver (ECA, k=%d)" % K,
            [
                {
                    "driver": "concurrent",
                    "events": len(result.trace.events),
                    "updates/s": round(result.throughput()),
                },
                {
                    "driver": "synchronous",
                    "events": len(sync_trace.events),
                    "updates/s": "-",
                },
            ],
        )
    )


def test_bench_sync_driver_baseline(benchmark):
    """The synchronous driver's wall time on the identical workload."""

    def run_sync():
        _, source, warehouse = fresh_eca()
        return Simulation(source, warehouse, workload()).run(RandomSchedule(seed=1))

    trace = benchmark(run_sync)
    assert trace.events


def test_bench_quiesce_latency_vs_drop_rate(benchmark):
    """Drops + retries stretch quiesce latency; zero faults mean zero wait."""

    rates = (0.0, 0.2, 0.4, 0.6)

    def sweep():
        latencies = {}
        for rate in rates:
            _, source, warehouse = fresh_eca()
            faults = FaultPlan(latency=1.0, jitter=2.0, drop_rate=rate)
            result = run_concurrent(
                source, warehouse, workload(k=12), faults=faults, seed=5
            )
            latencies[rate] = result.quiesce_latency
        return latencies

    latencies = benchmark(sweep)
    assert latencies[0.0] > 0.0  # base latency alone delays the last answer
    assert latencies[0.6] > latencies[0.0]  # retries push quiescence out
    emit(
        render_table(
            "Quiesce latency vs drop rate (virtual time)",
            [
                {"drop rate": rate, "quiesce latency": round(latencies[rate], 2)}
                for rate in rates
            ],
        )
    )


def test_bench_throughput_vs_topology(benchmark):
    """Throughput as the actor count grows (N sources x M clients)."""

    topologies = ((1, 0), (1, 4), (2, 4), (4, 8))

    def build(n_sources):
        sources, algorithms, updates = {}, {}, []
        for index in range(n_sources):
            prefix = "s%d" % index
            schemas = [
                RelationSchema(prefix + "r1", ("W", "X")),
                RelationSchema(prefix + "r2", ("X", "Y")),
            ]
            initial = {
                prefix + "r1": [(1, 2), (2, 3)],
                prefix + "r2": [(2, 5), (3, 6)],
            }
            source = MemorySource(schemas, initial)
            sources[prefix] = source
            view = View.natural_join("V%d" % index, schemas, ["W", "Y"])
            algorithms["V%d" % index] = ECA(
                view, evaluate_view(view, source.snapshot())
            )
            updates.extend(
                random_workload(schemas, 8, seed=index, initial=initial)
            )
        if n_sources == 1:
            return sources, next(iter(algorithms.values())), updates
        return sources, WarehouseCatalog(algorithms), updates

    def sweep():
        rows = []
        for n_sources, n_clients in topologies:
            sources, warehouse, updates = build(n_sources)
            result = run_concurrent(
                sources, warehouse, updates, clients=n_clients, seed=3
            )
            rows.append(
                {
                    "sources": n_sources,
                    "clients": n_clients,
                    "updates": result.updates,
                    "events": len(result.trace.events),
                    "updates/s": round(result.throughput()),
                }
            )
        return rows

    rows = benchmark(sweep)
    assert all(row["updates/s"] > 0 for row in rows)
    emit(render_table("Runtime throughput vs topology", rows))


def test_bench_sharded_scaling(benchmark):
    """Update throughput as the warehouse is partitioned over N shards.

    The workload is catalog-heavy: 8 sources each own 32 keyed join
    views (256 members), and every update is a keyed delete that ECA-Key
    handles locally with no compensating query.  A catalog delivers an
    update only to the members whose views read its relation and copies
    no member view per event, so an event costs about the same on any
    shard count: the table shows throughput roughly flat in N, the
    routing and event-loop overhead of more shards included.

    Measurement: CPU seconds (``time.process_time``), best of 3
    interleaved cycles per shard count, with the collector paused during
    the timed region.  The table is reported, not asserted on (a
    wall-clock ratio is the machine's as much as the program's).  What
    holds on any machine is asserted: every shard count converges to the
    same merged view, and relation-level routing hands each update to
    exactly one shard.
    """
    import gc
    import time

    from repro.core.registry import create_algorithm
    from repro.sharding import ExplicitPartitioner
    from repro.source.updates import delete

    n_sources = 8
    views_per_source = 32
    n_rows = 24
    cycles = 3
    shard_counts = (1, 2, 4, 8)
    names = [
        "V%d_%d" % (s, j)
        for s in range(n_sources)
        for j in range(views_per_source)
    ]

    def build():
        sources, algorithms, updates = {}, {}, []
        for s in range(n_sources):
            prefix = "s%d" % s
            schemas, initial = [], {}
            for j in range(views_per_source):
                r1, r2 = "%sa%d" % (prefix, j), "%sb%d" % (prefix, j)
                schemas += [
                    RelationSchema(r1, ("W", "X"), key=("W",)),
                    RelationSchema(r2, ("X", "Y"), key=("Y",)),
                ]
                initial[r1] = [(i, i + 1) for i in range(n_rows)]
                initial[r2] = [(i + 1, i + 100) for i in range(n_rows)]
            source = MemorySource(schemas, initial)
            sources[prefix] = source
            for j in range(views_per_source):
                pair = [schemas[2 * j], schemas[2 * j + 1]]
                view = View.natural_join("V%d_%d" % (s, j), pair, ["W", "Y"])
                algorithms[view.name] = create_algorithm(
                    "eca-key", view, evaluate_view(view, source.snapshot())
                )
                updates.append(delete("%sa%d" % (prefix, j), (0, 1)))
        return sources, WarehouseCatalog(algorithms), updates

    def sweep():
        best = {shards: None for shards in shard_counts}
        n_updates = 0
        finals = []
        # Interleave the shard counts within each cycle so slow drifts
        # (CPU frequency, cache state) hit every configuration alike.
        for _ in range(cycles):
            for shards in shard_counts:
                sources, catalog, updates = build()
                placement = ExplicitPartitioner(
                    {(name,): i % shards for i, name in enumerate(names)},
                    shards=shards,
                )
                gc.collect()
                gc.disable()
                started = time.process_time()
                result = run_concurrent(
                    sources, catalog, updates, clients=0, seed=3,
                    shards=shards, partitioner=placement, record_trace=False,
                )
                cpu = time.process_time() - started
                gc.enable()
                if best[shards] is None or cpu < best[shards]:
                    best[shards] = cpu
                n_updates = result.updates
                finals.append(result.final_view)
                received = [
                    result.metrics["shard%d" % shard].received
                    for shard in result.shard_info["shard_ids"]
                ]
                assert sum(received) == n_updates == len(updates), received
        assert all(final == finals[0] for final in finals[1:])
        return [
            {
                "shards": shards,
                "updates": n_updates,
                "updates/cpu-s": round(n_updates / best[shards]),
            }
            for shards in shard_counts
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        render_table(
            "Sharded warehouse throughput (%d views)" % len(names), rows
        )
    )
