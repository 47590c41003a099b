"""Measured (simulated) counterparts of the analytic cost curves.

These run the *actual* system — generated Example 6 data, a real source, a
real warehouse algorithm, FIFO channels — under the schedule that realizes
each best/worst case, and read the costs off the wire:

- bytes are exact (S per answer tuple actually transferred);
- I/Os are charged per evaluated term by the scenario estimators, using
  the live relation cardinalities.

Absolute values will not coincide with the closed forms (the analytic
model assumes every join expands by exactly J and every selection keeps
exactly sigma of its input), but the curves' *shape* must match — that is
what the E7 claim tests assert.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.registry import build_algorithm
from repro.costmodel.counters import CostRecorder
from repro.costmodel.io_scenarios import Scenario1Estimator, Scenario2Estimator
from repro.costmodel.parameters import PaperParameters
from repro.experiments.runner import make_source
from repro.simulation.driver import Simulation
from repro.simulation.schedules import BestCaseSchedule, Schedule, WorstCaseSchedule
from repro.workloads.example6 import build_example6

Series = Dict[str, List[float]]


def run_example6_once(
    params: PaperParameters,
    k: int,
    algorithm: str,
    schedule: Schedule,
    io_scenario: Optional[int] = None,
    seed: int = 0,
    source_kind: str = "memory",
    key_theta: Optional[float] = None,
) -> CostRecorder:
    """One simulated Example 6 run; returns the populated recorder.

    ``algorithm`` is ``"eca"``, ``"rv-best"`` (recompute once, period=k) or
    ``"rv-worst"`` (recompute every update, period=1).  ``key_theta``
    draws workload join keys Zipf-skewed (see :func:`build_example6`).
    """
    setup = build_example6(params, k, seed, key_theta=key_theta)
    source = make_source(setup.schemas, setup.initial, source_kind)
    try:
        if algorithm == "eca":
            warehouse = build_algorithm("eca", setup.view, source)
        elif algorithm == "rv-best":
            warehouse = build_algorithm("recompute", setup.view, source, period=max(1, k))
        elif algorithm == "rv-worst":
            warehouse = build_algorithm("recompute", setup.view, source, period=1)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if io_scenario is None:
            estimator = None
        elif io_scenario == 1:
            estimator = Scenario1Estimator(params)
        elif io_scenario == 2:
            estimator = Scenario2Estimator(params)
        else:
            raise ValueError(f"io_scenario must be 1 or 2, got {io_scenario!r}")
        recorder = CostRecorder(params, estimator)
        simulation = Simulation(source, warehouse, setup.workload, recorder)
        simulation.run(schedule)
    finally:
        if source_kind == "sqlite":
            source.close()
    return recorder


_CASES = {
    "RVBest": ("rv-best", BestCaseSchedule),
    "RVWorst": ("rv-worst", BestCaseSchedule),
    "ECABest": ("eca", BestCaseSchedule),
    "ECAWorst": ("eca", WorstCaseSchedule),
}


def _series(prefix: str, metric: str, params, k_values, **options) -> Series:
    """One curve per ``_CASES`` entry: ``metric`` of a run at each k."""
    series: Series = {"k": [float(k) for k in k_values]}
    for label, (algorithm, schedule_cls) in _CASES.items():
        runs = [
            run_example6_once(params, k, algorithm, schedule_cls(), **options)
            for k in k_values
        ]
        series[prefix + label] = [float(getattr(run, metric)) for run in runs]
    return series


def measure_bytes_series(
    params: Optional[PaperParameters] = None,
    k_values: Sequence[int] = (3, 12, 24, 48),
    seed: int = 0,
    source_kind: str = "memory",
) -> Series:
    """Measured counterpart of Figure 6.3 (B versus k)."""
    params = params or PaperParameters()
    return _series("B", "bytes", params, k_values, seed=seed, source_kind=source_kind)


def measure_io_series(
    scenario: int,
    params: Optional[PaperParameters] = None,
    k_values: Sequence[int] = (1, 3, 5, 7, 9, 11),
    seed: int = 0,
    source_kind: str = "memory",
) -> Series:
    """Measured counterpart of Figures 6.4/6.5 (IO versus k)."""
    params = params or PaperParameters()
    return _series(
        "IO", "ios", params, k_values,
        io_scenario=scenario, seed=seed, source_kind=source_kind,
    )


def hot_key_rows(
    params: Optional[PaperParameters] = None,
    thetas: Sequence[float] = (0.0, 4.0, 16.0),
    k_values: Sequence[int] = (12, 24),
    seed: int = 3,
) -> List[Dict[str, object]]:
    """E12 — ECA's best- and worst-case B and Scenario 1 IO as the
    inserted join keys grow Zipf-skewed (``theta=0`` is uniform)."""
    params = params or PaperParameters()
    rows: List[Dict[str, object]] = []
    for theta in thetas:
        for k in k_values:
            best, worst = (
                run_example6_once(
                    params, k, "eca", schedule, io_scenario=1, seed=seed,
                    key_theta=theta,
                )
                for schedule in (BestCaseSchedule(), WorstCaseSchedule())
            )
            rows.append(
                {"theta": theta, "k": k, "B best": best.bytes,
                 "B worst": worst.bytes, "gap": worst.bytes - best.bytes,
                 "IO best": best.ios, "IO worst": worst.ios}
            )
    return rows
