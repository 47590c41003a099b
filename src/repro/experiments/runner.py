"""Replay the paper's worked examples.

:func:`run_scenario` builds the source and warehouse a scenario describes,
replays the paper's exact event order with a scripted schedule, and returns
the trace plus the algorithm instance for inspection.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.protocol import WarehouseAlgorithm
from repro.core.registry import build_algorithm
from repro.simulation.driver import Simulation
from repro.simulation.schedules import Schedule, ScriptedSchedule
from repro.simulation.trace import Trace
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.workloads.paper_examples import Scenario


def make_source(schemas, initial, kind: str):
    """A ``"memory"`` or ``"sqlite"`` source holding ``initial``."""
    if kind == "memory":
        return MemorySource(schemas, initial)
    if kind == "sqlite":
        return SQLiteSource(schemas, initial)
    raise ValueError(f"unknown source kind {kind!r}")


def run_scenario(
    scenario: Scenario,
    algorithm: Optional[str] = None,
    schedule: Optional[Schedule] = None,
    source_kind: str = "memory",
    recorder: Optional[object] = None,
) -> Tuple[Trace, WarehouseAlgorithm]:
    """Run one scenario end to end.

    Parameters
    ----------
    scenario:
        A worked example (see :data:`repro.workloads.PAPER_EXAMPLES`).
    algorithm:
        Override the scenario's algorithm (e.g. run ECA on the anomaly
        scenario of Example 2).  When overriding, supply a ``schedule``
        too — the scripted event order only fits the original algorithm's
        message pattern.
    schedule:
        Defaults to the scenario's scripted event order.
    source_kind:
        ``"memory"`` or ``"sqlite"``.
    """
    name = algorithm or scenario.algorithm
    if schedule is None:
        schedule = ScriptedSchedule(scenario.actions)
    source = make_source(scenario.schemas, scenario.initial, source_kind)
    try:
        warehouse = build_algorithm(
            name, scenario.view, source, **scenario.algorithm_options
        )
        simulation = Simulation(source, warehouse, scenario.updates, recorder)
        trace = simulation.run(schedule)
    finally:
        if source_kind == "sqlite":
            source.close()
    return trace, warehouse
