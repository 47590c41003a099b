"""Table 1, the Section 6.1 message-count analysis, the headline
crossovers, the correctness audit (E9), batching (E10), the freshness
frontier (E11) and the multi-source frontier (E13) — each table defined
once, printed by the CLI, embedded by ``repro report`` and asserted by
the claim tests."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

from repro.consistency import check_cuts, check_trace, staleness_profile
from repro.core.registry import ALGORITHMS, build_algorithm
from repro.costmodel import analytic
from repro.costmodel.counters import CostRecorder
from repro.costmodel.parameters import PaperParameters
from repro.kernel import SyncKernel
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
    EagerSourceSchedule,
    RandomSchedule,
    WorstCaseSchedule,
)
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload


def parameter_table(params: Optional[PaperParameters] = None) -> List[Dict[str, object]]:
    """Table 1 — the performance-model variables with their defaults."""
    params = params or PaperParameters()
    return [
        {"name": "C", "meaning": "Cardinality of a relation", "value": params.C},
        {"name": "S", "meaning": "Size of projected attributes (bytes)", "value": params.S},
        {"name": "sigma", "meaning": "Selection factor", "value": params.sigma},
        {"name": "J", "meaning": "Join factor", "value": params.J},
        {"name": "K", "meaning": "Tuples per physical block", "value": params.K},
        {"name": "I", "meaning": "I/Os to read one relation (= ceil(C/K))", "value": params.I},
        {
            "name": "I'",
            "meaning": "Double-block groups (= ceil(C/2K))",
            "value": params.I_prime,
        },
    ]


def messages_table(
    k_values: Sequence[int] = (1, 10, 100), periods: Sequence[int] = (1, 10)
) -> List[Dict[str, object]]:
    """Section 6.1 — M_RV = 2*ceil(k/s) versus M_ECA = 2k.

    One row per (k, s) combination, plus the ECA column (independent of s).
    RV spans from 2 messages (s = k, view recomputed once) to 2k (s = 1).
    """
    rows: List[Dict[str, object]] = []
    for k in k_values:
        for s in periods:
            if s > k:
                continue
            rows.append(
                {
                    "k": k,
                    "s": s,
                    "M_RV": analytic.messages_rv(k, s),
                    "M_ECA": analytic.messages_eca(k),
                }
            )
        # The paper's two extremes for this k.
        rows.append(
            {
                "k": k,
                "s": k,
                "M_RV": analytic.messages_rv(k, k),
                "M_ECA": analytic.messages_eca(k),
            }
        )
    return rows


def crossover_rows(params: PaperParameters) -> List[Dict[str, object]]:
    """The k at which each ECA cost curve crosses recompute-once."""
    pairs = [
        ("bytes  ECA best  vs recompute-once", analytic.bytes_eca_best, analytic.bytes_rv_best),
        ("bytes  ECA worst vs recompute-once", analytic.bytes_eca_worst, analytic.bytes_rv_best),
        ("IO s1  ECA best  vs recompute-once", analytic.io1_eca_best, analytic.io1_rv_best),
        ("IO s2  ECA best  vs recompute-once", analytic.io2_eca_best, analytic.io2_rv_best),
        ("IO s2  ECA worst vs recompute-once", analytic.io2_eca_worst, analytic.io2_rv_best),
    ]
    return [
        {
            "comparison": label,
            "crossover k": analytic.crossover_k(
                eca_curve, lambda p, kk: rv_curve(p), params
            ),
        }
        for label, eca_curve, rv_curve in pairs
    ]


#: The base data of E9-E11's view ``pi_{W,Y}(r1 |x| r2)`` (E9 keys W and Y).
SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def audit_rows(
    workloads: int = 6, updates: int = 9, schedules: int = 3
) -> List[Dict[str, object]]:
    """E9 — correctness levels every single-source immediate algorithm in
    the registry reaches over ``workloads`` random workloads x the first
    ``schedules`` of best, worst, random, eager-source and a second
    random interleaving."""
    if workloads < 1:
        raise ValueError(f"workloads must be >= 1, got {workloads}")
    schemas = [
        RelationSchema("r1", ("W", "X"), key=("W",)),
        RelationSchema("r2", ("X", "Y"), key=("Y",)),
    ]
    view = View.natural_join("V", schemas, ["W", "Y"])
    names = [
        n
        for n in sorted(ALGORITHMS)
        if n not in ("recompute", "deferred-eca")
        and not getattr(ALGORITHMS[n], "multi_source", False)
    ]
    batch_size = max(1, updates // 3)
    while updates % batch_size:
        batch_size -= 1
    levels: Dict[str, Set[str]] = defaultdict(set)
    for seed in range(workloads):
        workload = random_workload(
            schemas, updates, seed=seed, initial=INITIAL, respect_keys=True
        )
        interleavings = (BestCaseSchedule(), WorstCaseSchedule(), RandomSchedule(seed))
        interleavings += (EagerSourceSchedule(), RandomSchedule(seed + 5000))
        for schedule in interleavings[:schedules]:
            for name in names:
                source = MemorySource(schemas, INITIAL)
                options = {"batch_size": batch_size} if name == "batch-eca" else {}
                algo = build_algorithm(name, view, source, **options)
                trace = Simulation(source, algo, list(workload)).run(schedule)
                levels[name].add(check_trace(view, trace).level())
    return [
        {"algorithm": name, "observed levels": ", ".join(sorted(levels[name]))}
        for name in names
    ]


def _run_policy(name, options, updates, seed, schedule):
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    warehouse = build_algorithm(name, view, source, **options)
    recorder = CostRecorder()
    workload = random_workload(SCHEMAS, updates, seed=seed, initial=INITIAL)
    trace = Simulation(source, warehouse, workload, recorder).run(schedule)
    return recorder, trace, check_trace(view, trace).level(), view


def batching_rows(
    updates: int = 24, batch_sizes: Sequence[int] = (1, 2, 4, 8, 24), seed: int = 3
) -> List[Dict[str, object]]:
    """E10 — BatchECA's messages, bytes and level per batch size under the
    worst-case interleaving (batch size 1 is plain ECA)."""
    rows: List[Dict[str, object]] = []
    for b in batch_sizes:
        name, options = ("eca", {}) if b == 1 else ("batch-eca", {"batch_size": b})
        recorder, _, level, _ = _run_policy(
            name, options, updates, seed, WorstCaseSchedule()
        )
        rows.append(
            {"batch": b, "messages": recorder.messages, "bytes": recorder.bytes,
             "level": level}
        )
    return rows


def staleness_rows(
    updates: int = 24,
    periods: Sequence[int] = (1, 6, 24),
    batches: Sequence[int] = (4, 12),
    seed: int = 9,
) -> List[Dict[str, object]]:
    """E11 — messages against view lag for ECA, RV(s) and BatchECA(b)
    under the quiet (best-case) schedule."""
    policies = [("ECA (immediate)", "eca", {})]
    policies += [(f"RV s={s}", "recompute", {"period": s}) for s in periods]
    policies += [(f"Batch b={b}", "batch-eca", {"batch_size": b}) for b in batches]
    rows: List[Dict[str, object]] = []
    for label, name, options in policies:
        recorder, trace, level, view = _run_policy(
            name, options, updates, seed, BestCaseSchedule()
        )
        profile = staleness_profile(view, trace)
        rows.append(
            {"policy": label, "messages": recorder.messages,
             "mean lag": round(profile.mean_lag, 2), "max lag": profile.max_lag,
             "level": level}
        )
    return rows


def multisource_rows(runs: int = 15) -> List[Dict[str, object]]:
    """E13 — how often the naive fragmenting transplant, multi-source
    stored copies and the Strobe-style algorithm converge, stay cut
    consistent and are complete over ``runs`` random interleavings of a
    view split across two sources."""
    r1 = RelationSchema("r1", ("W", "X"), key=("W",))
    r2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
    r3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
    initial = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (9, 8)]}
    view_def = View.natural_join("V", [r1, r2, r3], ["W", "r2.Y", "Z"])
    algorithms = {
        "naive": "fragmenting-incremental",
        "sc": "multi-stored-copies",
        "strobe": "strobe",
    }
    totals = {kind: {"converged": 0, "cut": 0, "complete": 0} for kind in algorithms}
    for seed in range(runs):
        workload = random_workload(
            [r1, r2, r3], 8, seed=seed, initial=initial, respect_keys=True
        )
        for kind, name in algorithms.items():
            sources = {
                "A": MemorySource([r1], {"r1": initial["r1"]}),
                "B": MemorySource([r2, r3], {"r2": initial["r2"], "r3": initial["r3"]}),
            }
            algo = build_algorithm(name, view_def, sources)
            sim = SyncKernel(sources, algo, list(workload))
            trace = sim.run(RandomSchedule(seed * 3 + 1))
            report = check_cuts(view_def, sim.per_source_states, trace.view_states)
            totals[kind]["converged"] += report.convergent
            totals[kind]["cut"] += report.consistent
            totals[kind]["complete"] += report.complete
    return [
        {
            "algorithm": kind,
            "converged": f"{data['converged']}/{runs}",
            "cut-consistent": f"{data['cut']}/{runs}",
            "complete": f"{data['complete']}/{runs}",
        }
        for kind, data in totals.items()
    ]
