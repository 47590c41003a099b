"""Experiment harness: the one place each experiment of DESIGN.md §4 runs.

The CLI, ``repro report`` and the claim tests all call the same function:
E1 ``tables.messages_table``; E2-E5 ``figures.figure_6_2`` .. ``figure_6_5``
and ``tables.crossover_rows``; E6 ``tables.parameter_table``; E7
``measured.measure_bytes_series`` / ``measure_io_series`` over
``measured.run_example6_once``; E8 ``runner.run_scenario``; E9
``tables.audit_rows``; E10 ``tables.batching_rows``; E11
``tables.staleness_rows``; E12 ``measured.hot_key_rows``; E13
``tables.multisource_rows``.  :mod:`repro.experiments.report` renders
them as text, :mod:`repro.experiments.full_report` as one record.
"""

from repro.experiments.figures import (
    figure_6_2,
    figure_6_3,
    figure_6_4,
    figure_6_5,
)
from repro.experiments.measured import measure_bytes_series, measure_io_series
from repro.experiments.report import render_series
from repro.experiments.runner import run_scenario
from repro.experiments.tables import messages_table, parameter_table

__all__ = [
    "figure_6_2",
    "figure_6_3",
    "figure_6_4",
    "figure_6_5",
    "measure_bytes_series",
    "measure_io_series",
    "messages_table",
    "parameter_table",
    "render_series",
    "run_scenario",
]
