"""Table 1, the Section 6.1 message-count analysis, the headline
crossovers and the correctness audit — each table defined once, printed
by the CLI and embedded by ``repro report``."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set

from repro.consistency import check_trace
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.stored_copies import StoredCopies
from repro.costmodel import analytic
from repro.costmodel.parameters import PaperParameters
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
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
    k_values: Sequence[int] = (1, 5, 10, 50, 100),
    periods: Sequence[int] = (1, 5, 10),
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


def audit_rows(workloads: int = 6, updates: int = 9) -> List[Dict[str, object]]:
    """Correctness levels every single-source immediate algorithm in the
    registry reaches over ``workloads`` random workloads x 3 schedules."""
    schemas = [
        RelationSchema("r1", ("W", "X"), key=("W",)),
        RelationSchema("r2", ("X", "Y"), key=("Y",)),
    ]
    initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
    view = View.natural_join("V", schemas, ["W", "Y"])
    names = [
        n
        for n in sorted(ALGORITHMS)
        if n not in ("recompute", "deferred-eca")
        and not getattr(ALGORITHMS[n], "multi_source", False)
    ]
    levels: Dict[str, Set[str]] = defaultdict(set)
    for seed in range(workloads):
        workload = random_workload(
            schemas, updates, seed=seed, initial=initial, respect_keys=True
        )
        for schedule in (BestCaseSchedule(), WorstCaseSchedule(), RandomSchedule(seed)):
            for name in names:
                source = MemorySource(schemas, initial)
                initial_view = evaluate_view(view, source.snapshot())
                if name == "stored-copies":
                    algo = StoredCopies(view, initial_view, source.snapshot())
                elif name == "batch-eca":
                    size = max(1, updates // 3)
                    while updates % size:
                        size -= 1
                    algo = create_algorithm(name, view, initial_view, batch_size=size)
                else:
                    algo = create_algorithm(name, view, initial_view)
                trace = Simulation(source, algo, list(workload)).run(schedule)
                levels[name].add(check_trace(view, trace).level())
    return [
        {"algorithm": name, "observed levels": ", ".join(sorted(levels[name]))}
        for name in names
    ]
