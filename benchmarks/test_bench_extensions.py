"""Benchmarks for the Section 7 extensions: batching and multi-source.

Not figures from the paper — these quantify the future-work items the
paper predicted ("this extension should result in a very useful
performance enhancement" for batching; "additional issues are raised" for
multiple sources).
"""

from __future__ import annotations

from _bench_util import emit

from repro.consistency import check_trace
from repro.core.batch import BatchECA
from repro.core.eca import ECA
from repro.costmodel.counters import CostRecorder
from repro.experiments.report import render_table
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import RandomSchedule, WorstCaseSchedule
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def run_batched(batch_size: int, k: int = 24):
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    initial_view = evaluate_view(view, source.snapshot())
    if batch_size == 1:
        warehouse = ECA(view, initial_view)
    else:
        warehouse = BatchECA(view, initial_view, batch_size=batch_size)
    recorder = CostRecorder()
    workload = random_workload(SCHEMAS, k, seed=3, initial=INITIAL)
    trace = Simulation(source, warehouse, workload, recorder).run(WorstCaseSchedule())
    report = check_trace(view, trace)
    return recorder, report


def test_bench_batching_message_economics(benchmark):
    """2*ceil(k/b) messages, strong consistency preserved at every b."""

    def sweep():
        return {b: run_batched(b) for b in (1, 2, 4, 8, 24)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    k = 24
    for batch_size, (recorder, report) in sorted(results.items()):
        rows.append(
            {
                "batch": batch_size,
                "messages": recorder.messages,
                "bytes": recorder.bytes,
                "level": report.level(),
            }
        )
        assert recorder.messages == 2 * -(-k // batch_size)
        assert report.strongly_consistent
    emit(render_table("Batching economics (k=24, worst-case interleaving)", rows))
    # Strictly fewer messages as batches grow.
    messages = [row["messages"] for row in rows]
    assert messages == sorted(messages, reverse=True)


def test_bench_multisource_failure_rate(benchmark):
    """Quantify how often the naive multi-source transplant breaks, and
    that both SC and the Strobe-style algorithm never do."""
    from repro.kernel import SyncKernel
    from repro.multisource import (
        FragmentingIncremental,
            MultiSourceStoredCopies,
        StrobeStyle,
        check_cut_consistency,
        check_cut_convergence,
    )

    r1 = RelationSchema("r1", ("W", "X"), key=("W",))
    r2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
    r3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
    owners = {"r1": "A", "r2": "B", "r3": "B"}
    initial = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (9, 8)]}
    view = View.natural_join("V", [r1, r2, r3], ["W", "r2.Y", "Z"])

    def audit(runs=25):
        kinds = ("naive", "sc", "strobe")
        counts = {kind: 0 for kind in kinds}
        cut_ok = {kind: 0 for kind in kinds}
        for seed in range(runs):
            workload = random_workload(
                [r1, r2, r3], 8, seed=seed, initial=initial, respect_keys=True
            )
            for kind in kinds:
                a = MemorySource([r1], {"r1": initial["r1"]})
                b = MemorySource(
                    [r2, r3], {"r2": initial["r2"], "r3": initial["r3"]}
                )
                merged = {**a.snapshot(), **b.snapshot()}
                initial_view = evaluate_view(view, merged)
                if kind == "naive":
                    algo = FragmentingIncremental(view, owners, initial_view)
                elif kind == "strobe":
                    algo = StrobeStyle(view, owners, initial_view)
                else:
                    algo = MultiSourceStoredCopies(view, owners, initial_view, merged)
                sim = SyncKernel({"A": a, "B": b}, algo, list(workload))
                trace = sim.run(RandomSchedule(seed * 3 + 1))
                counts[kind] += check_cut_convergence(
                    view, sim.per_source_states, trace.final_view_state
                )
                cut_ok[kind] += check_cut_consistency(
                    view, sim.per_source_states, trace.view_states
                )
        return counts, cut_ok, runs

    counts, cut_ok, runs = benchmark.pedantic(audit, rounds=1, iterations=1)
    emit(
        f"multi-source over {runs} interleavings: naive converged "
        f"{counts['naive']}/{runs} (cut-consistent {cut_ok['naive']}), "
        f"SC {counts['sc']}/{runs} (cut-consistent {cut_ok['sc']}), "
        f"strobe-style {counts['strobe']}/{runs} "
        f"(cut-consistent {cut_ok['strobe']})"
    )
    assert counts["sc"] == cut_ok["sc"] == runs
    assert counts["strobe"] == cut_ok["strobe"] == runs
    assert counts["naive"] < runs
