"""Concurrent warehouse: actors, a lossy transport, and a verdict.

The ISSUE.md scenario for the asyncio runtime, end to end:

1. two autonomous sources, each owning a two-relation join view;
2. one warehouse maintaining both views with ECA (Section 7: "ECA is
   simply applied to each view separately" via ``WarehouseCatalog``);
3. four clients concurrently refreshing and reading the views;
4. a fault-injecting transport — latency, jitter, and 30% message drops
   with retry/backoff — that still preserves per-channel FIFO, the one
   assumption the paper's Section 2 model actually needs;
5. the Section 3.1 checker classifying the emergent interleaving, plus
   the quiesce latency the faults cost.

Everything is driven by one seed: run it twice and the trace is
identical.  Run:  python examples/concurrent_warehouse.py
"""

from repro import MemorySource, RelationSchema, View, build_algorithm, check_trace
from repro.relational.engine import evaluate_view
from repro.runtime import FaultPlan, run_concurrent
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

SEED = 7


def build_source(prefix: str):
    """One autonomous source owning r1(W,X) |x| r2(X,Y)."""
    schemas = [
        RelationSchema(f"{prefix}_r1", ("W", "X")),
        RelationSchema(f"{prefix}_r2", ("X", "Y")),
    ]
    initial = {
        f"{prefix}_r1": [(1, 2), (2, 3)],
        f"{prefix}_r2": [(2, 5), (3, 6)],
    }
    return schemas, MemorySource(schemas, initial), initial


def main() -> None:
    # 1-2. Two sources, one ECA view per source, one shared warehouse.
    sources, algorithms, workload = {}, {}, []
    for index, name in enumerate(("orders", "inventory")):
        schemas, source, initial = build_source(name)
        sources[name] = source
        view = View.natural_join(f"V_{name}", schemas, ["W", "Y"])
        algorithms[view.name] = build_algorithm("eca", view, {name: source})
        workload.extend(
            random_workload(schemas, 10, seed=SEED + index, initial=initial)
        )
    warehouse = WarehouseCatalog(algorithms)

    # 4. The lossy-but-FIFO transport.
    faults = FaultPlan(latency=1.0, jitter=3.0, drop_rate=0.3)

    # 3+5. Run sources, warehouse, and four reading clients concurrently.
    result = run_concurrent(
        sources,
        warehouse,
        workload,
        clients=4,
        client_reads=3,
        faults=faults,
        seed=SEED,
    )

    report = check_trace(warehouse, result.trace)
    print(f"updates executed:      {result.updates}")
    print(f"warehouse events:      {len(result.trace.events)}")
    print(f"consistency verdict:   {report.level()}")
    print(f"quiesce latency:       {result.quiesce_latency:.2f} virtual ticks")
    print(f"virtual duration:      {result.virtual_duration:.2f} ticks")
    print(f"throughput:            {result.throughput():.0f} updates/s")
    print()
    for channel, stats in sorted(result.channel_stats.items()):
        print(
            f"  {channel:<18} sent={stats.sent:<3} dropped={stats.dropped:<3}"
            f" retries={stats.retries}"
        )
    print()
    for client, observations in sorted(result.observations.items()):
        tick, last = observations[-1]
        print(f"  {client}: last read at t={tick:.2f} saw {last.total_count()} row(s)")

    # Per-view maintenance is exact; the union across sources is only
    # guaranteed convergent (the Section 7 gap Strobe/SWEEP close).
    assert report.convergent, report.detail
    final = evaluate_view(warehouse, result.trace.final_source_state)
    assert result.final_view == final
    print("\nview converged to the eval-anytime oracle despite 30% drops")


if __name__ == "__main__":
    main()
