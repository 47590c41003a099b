"""One-shot regeneration of every experiment as a text report.

``generate_report`` stitches together every experiment EXPERIMENTS.md
documents — Table 1, message counts, the four figures, crossovers, the
worked examples, the correctness audit, the multi-source frontier and
(unless ``quick``) the measured counterparts, batching, the staleness
frontier and hot-key skew — so a reviewer can diff a fresh run against
the committed record with one command::

    python -m repro report --output report.txt
"""

from __future__ import annotations

from typing import List, Optional

from repro.consistency import check_trace
from repro.costmodel.parameters import PaperParameters
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.measured import (
    hot_key_rows,
    measure_bytes_series,
    measure_io_series,
)
from repro.experiments.report import render_series, render_table
from repro.experiments.runner import run_scenario
from repro.experiments.tables import (
    audit_rows,
    batching_rows,
    crossover_rows,
    messages_table,
    multisource_rows,
    parameter_table,
    staleness_rows,
)
from repro.workloads.paper_examples import PAPER_EXAMPLES


def _heading(title: str) -> str:
    return "\n".join(["", "=" * 72, title, "=" * 72, ""])


def _examples_rows() -> List[dict]:
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
    chunks.append(render_table("", messages_table()))

    for name, builder in ALL_FIGURES.items():
        chunks.append(_heading(f"{name} (analytic)"))
        every_tenth = {"k_values": range(10, 121, 10)} if name == "figure-6.3" else {}
        chunks.append(render_series("", builder(params, **every_tenth)))

    chunks.append(_heading("Headline crossovers"))
    chunks.append(render_table("", crossover_rows(params)))

    chunks.append(_heading("E8 — the paper's worked examples"))
    chunks.append(render_table("", _examples_rows()))

    chunks.append(_heading("E9 — correctness audit"))
    chunks.append(render_table("", audit_rows()))

    chunks.append(_heading("E13 — multi-source frontier"))
    chunks.append(render_table("", multisource_rows()))

    if not quick:
        chunks.append(_heading("E7 — measured bytes (full simulation)"))
        chunks.append(render_series("", measure_bytes_series(params)))
        chunks.append(_heading("E7 — measured I/O, Scenario 1"))
        chunks.append(render_series("", measure_io_series(1, params)))
        chunks.append(_heading("E7 — measured I/O, Scenario 2"))
        chunks.append(render_series("", measure_io_series(2, params)))
        chunks.append(_heading("E10 — batching economics (worst-case interleaving)"))
        chunks.append(render_table("", batching_rows()))
        chunks.append(_heading("E11 — freshness vs messages (quiet schedule)"))
        chunks.append(render_table("", staleness_rows()))
        chunks.append(_heading("E12 — compensation traffic vs join-key skew"))
        chunks.append(render_table("", hot_key_rows(params)))

    return "\n".join(chunks) + "\n"

