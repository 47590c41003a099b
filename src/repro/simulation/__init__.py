"""Discrete-event simulation of the source/warehouse system.

The driver owns the two FIFO channels and exposes three primitive actions,
mirroring the paper's event types:

- ``update``  — the source executes the next workload update and sends the
  notification (``S_up``);
- ``answer``  — the source receives the oldest pending query, evaluates it
  on its *current* state, and sends the answer (``S_qu``);
- ``warehouse`` — the warehouse receives its oldest message and processes
  it (``W_up`` or ``W_ans``), possibly emitting queries.

A :class:`~repro.simulation.schedules.Schedule` picks which available
action runs next; this is the single knob that produces the paper's
best case (every query answered before the next update), worst case (all
updates precede all query evaluations), the scripted event orders of the
paper's examples, and randomized interleavings for property tests.
"""

from repro.simulation.driver import REFRESH, Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
    RandomSchedule,
    Schedule,
    ScriptedSchedule,
    WorstCaseSchedule,
)
from repro.simulation.trace import EventRecord, HistoryRecorder, Trace, project_view

__all__ = [
    "BestCaseSchedule",
    "REFRESH",
    "EventRecord",
    "HistoryRecorder",
    "RandomSchedule",
    "Schedule",
    "ScriptedSchedule",
    "Simulation",
    "Trace",
    "WorstCaseSchedule",
    "project_view",
]
