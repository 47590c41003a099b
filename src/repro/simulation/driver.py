"""The single-source simulation driver — a facade over the shared kernel.

Historically this module owned its own message pump; it is now a thin
compatibility layer over :class:`repro.kernel.sync.SyncKernel` (one
source named ``"source"``), keeping the legacy action names (``update`` /
``answer`` / ``warehouse``) and the sole-channel attributes
(:attr:`Simulation.to_warehouse` / :attr:`Simulation.to_source`).  All
policy lives in the algorithm (what to send, how to update the view) and
the schedule (when things happen); the kernel enforces the paper's
structural assumptions: events are atomic, and messages on each channel
are delivered and processed in order.
"""

from __future__ import annotations

import logging
from typing import List, Optional, Sequence, Tuple

logger = logging.getLogger("repro.simulation")

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import SimulationError
from repro.kernel.sync import REFRESH, SyncKernel
from repro.messaging.channel import FifoChannel
from repro.simulation.schedules import ANSWER, Schedule, UPDATE, WAREHOUSE
from repro.simulation.trace import Trace
from repro.source.base import Source
from repro.source.updates import Update

__all__ = ["REFRESH", "Simulation", "run_simulation"]

#: The kernel's name for the facade's sole source.
_SOLE = "source"


class Simulation(SyncKernel):
    """One source, one warehouse algorithm, one workload.

    Parameters
    ----------
    source:
        The source database (already loaded with initial data).
    algorithm:
        The warehouse maintenance algorithm (already initialized with the
        view's initial contents).
    workload:
        The updates the source will execute, in order.
    recorder:
        Optional cost recorder (see :mod:`repro.costmodel.counters`); must
        provide ``record_request``, ``record_answer`` and
        ``record_evaluation`` methods.
    """

    def __init__(
        self,
        source: Source,
        algorithm: WarehouseAlgorithm,
        workload: Sequence[Update],
        recorder: Optional[object] = None,
    ) -> None:
        super().__init__({_SOLE: source}, algorithm, workload, recorder=recorder)
        self.source = source

    # Sole-channel views over the kernel's per-source channel maps.
    @property
    def to_warehouse(self) -> FifoChannel:
        """The source -> warehouse channel."""
        return self.inbound[_SOLE]

    @property
    def to_source(self) -> FifoChannel:
        """The warehouse -> source channel."""
        return self.outbound[_SOLE]

    # Legacy action-name mapping (``update`` / ``answer`` / ``warehouse``).
    def available_actions(self) -> List[str]:
        actions: List[str] = []
        if self._updates:
            actions.append(UPDATE)
        if not self.to_source.is_empty():
            actions.append(ANSWER)
        if not self.to_warehouse.is_empty():
            actions.append(WAREHOUSE)
        return actions

    def step(self, action: str) -> None:
        if action == UPDATE:
            self._do_update()
        elif action == ANSWER:
            self._do_answer(_SOLE)
        elif action == WAREHOUSE:
            self._do_warehouse(_SOLE)
        else:
            raise SimulationError(f"unknown action {action!r}")

    def run(self, schedule: Schedule, max_steps: int = 1_000_000) -> Trace:
        """Run to quiescence under ``schedule``; returns the trace."""
        return super().run(schedule, max_steps=max_steps)


def run_simulation(
    source: Source,
    algorithm: WarehouseAlgorithm,
    workload: Sequence[Update],
    schedule: Schedule,
    recorder: Optional[object] = None,
) -> Tuple[Trace, Optional[object]]:
    """Convenience wrapper: build a :class:`Simulation`, run it, return both
    the trace and the recorder (if any)."""
    simulation = Simulation(source, algorithm, workload, recorder)
    trace = simulation.run(schedule)
    return trace, recorder
