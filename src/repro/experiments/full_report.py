"""One-shot regeneration of every experiment as a text report.

``generate_report`` stitches together everything EXPERIMENTS.md documents
— Table 1, message counts, the four figures, crossovers, the worked
examples, the correctness audit, and (unless ``quick``) the measured
counterparts and the staleness frontier — so a reviewer can diff a fresh
run against the committed record with one command::

    python -m repro report --output report.txt
"""

from __future__ import annotations

from typing import List, Optional

from repro.consistency import check_trace
from repro.costmodel.parameters import PaperParameters
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.measured import measure_bytes_series, measure_io_series
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import run_scenario
from repro.experiments.tables import (
    audit_rows,
    crossover_rows,
    messages_table,
    parameter_table,
)


def _heading(title: str) -> str:
    return "\n".join(["", "=" * 72, title, "=" * 72, ""])


def _examples_rows() -> List[dict]:
    from repro.workloads.paper_examples import PAPER_EXAMPLES

    rows = []
    for name in sorted(PAPER_EXAMPLES):
        scenario = PAPER_EXAMPLES[name]
        trace, warehouse = run_scenario(scenario)
        final = sorted(warehouse.mv.rows())
        rows.append(
            {
                "example": name,
                "algorithm": scenario.algorithm,
                "final": str(final),
                "matches paper": final == scenario.expected_final,
                "level": check_trace(scenario.view, trace).level(),
            }
        )
    return rows


def generate_report(
    params: Optional[PaperParameters] = None, quick: bool = False
) -> str:
    """The full regenerated experimental record, as one text blob."""
    params = params or PaperParameters()
    chunks: List[str] = []
    chunks.append(
        "Reproduction report — 'View Maintenance in a Warehousing "
        "Environment' (SIGMOD 1995)"
    )

    chunks.append(_heading("E6 — Table 1, model parameters"))
    chunks.append(render_table("", parameter_table(params)))

    chunks.append(_heading("E1 — Section 6.1, message counts"))
    chunks.append(
        render_table("", messages_table(k_values=(1, 10, 100), periods=(1, 10)))
    )

    for name, builder in ALL_FIGURES.items():
        chunks.append(_heading(f"{name} (analytic)"))
        x_key = "C" if name == "figure-6.2" else "k"
        series = builder(params)
        if name == "figure-6.3":
            series = builder(params, k_values=range(10, 121, 10))
        chunks.append(render_series("", series, x_key=x_key))

    chunks.append(_heading("Headline crossovers"))
    chunks.append(render_table("", crossover_rows(params)))

    chunks.append(_heading("E8 — the paper's worked examples"))
    chunks.append(render_table("", _examples_rows()))

    chunks.append(_heading("E9 — correctness audit"))
    chunks.append(render_table("", audit_rows()))

    chunks.append(_heading("E13 — multi-source frontier"))
    chunks.append(render_table("", _multisource_rows()))

    if not quick:
        chunks.append(_heading("E7 — measured bytes (full simulation)"))
        chunks.append(
            render_series("", measure_bytes_series(params, k_values=(3, 12, 24, 48)))
        )
        chunks.append(_heading("E7 — measured I/O, Scenario 1"))
        chunks.append(
            render_series("", measure_io_series(1, params, k_values=(1, 3, 5, 7, 9, 11)))
        )
        chunks.append(_heading("E7 — measured I/O, Scenario 2"))
        chunks.append(
            render_series("", measure_io_series(2, params, k_values=(1, 3, 5, 7, 9, 11)))
        )

    return "\n".join(chunks) + "\n"


def _multisource_rows(runs: int = 15) -> List[dict]:
    from repro.kernel import SyncKernel
    from repro.multisource import (
        FragmentingIncremental,
            MultiSourceStoredCopies,
        StrobeStyle,
        check_cut_consistency,
        check_cut_convergence,
    )
    from repro.relational.engine import evaluate_view
    from repro.relational.schema import RelationSchema
    from repro.relational.views import View
    from repro.simulation.schedules import RandomSchedule
    from repro.source.memory import MemorySource
    from repro.workloads.random_gen import random_workload

    r1 = RelationSchema("r1", ("W", "X"), key=("W",))
    r2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
    r3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
    owners = {"r1": "A", "r2": "B", "r3": "B"}
    initial = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (9, 8)]}
    view_def = View.natural_join("V", [r1, r2, r3], ["W", "r2.Y", "Z"])
    totals = {
        kind: {"converged": 0, "cut": 0} for kind in ("naive", "sc", "strobe")
    }
    for seed in range(runs):
        workload = random_workload(
            [r1, r2, r3], 8, seed=seed, initial=initial, respect_keys=True
        )
        for kind in totals:
            a = MemorySource([r1], {"r1": initial["r1"]})
            b = MemorySource([r2, r3], {"r2": initial["r2"], "r3": initial["r3"]})
            merged = {**a.snapshot(), **b.snapshot()}
            initial_view = evaluate_view(view_def, merged)
            if kind == "naive":
                algo = FragmentingIncremental(view_def, owners, initial_view)
            elif kind == "strobe":
                algo = StrobeStyle(view_def, owners, initial_view)
            else:
                algo = MultiSourceStoredCopies(view_def, owners, initial_view, merged)
            sim = SyncKernel({"A": a, "B": b}, algo, list(workload))
            trace = sim.run(RandomSchedule(seed * 3 + 1))
            totals[kind]["converged"] += check_cut_convergence(
                view_def, sim.per_source_states, trace.final_view_state
            )
            totals[kind]["cut"] += check_cut_consistency(
                view_def, sim.per_source_states, trace.view_states
            )
    return [
        {
            "algorithm": kind,
            "converged": f"{data['converged']}/{runs}",
            "cut-consistent": f"{data['cut']}/{runs}",
        }
        for kind, data in totals.items()
    ]
