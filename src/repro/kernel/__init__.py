"""The shared execution kernel behind every driver.

One message pump, three frontends: the synchronous :class:`SyncKernel`
(driven by schedules — :class:`repro.simulation.driver.Simulation` is a
thin one-source facade over it), the asyncio actors of
:mod:`repro.runtime`, and WAL replay in :mod:`repro.durability.recovery`.
All of them deliver messages through
:func:`repro.kernel.dispatch.dispatch_event`, so an algorithm sees the
identical atomic-event protocol no matter which kernel runs it.
"""

from repro.kernel.conformance import replay_concurrent
from repro.kernel.dispatch import (
    dispatch_event,
    event_kind,
    is_duplicate_answer,
    query_owner,
    receive_query_request,
)
from repro.kernel.sync import CLIENT, REFRESH, SyncKernel

__all__ = [
    "CLIENT",
    "REFRESH",
    "SyncKernel",
    "dispatch_event",
    "event_kind",
    "is_duplicate_answer",
    "query_owner",
    "receive_query_request",
    "replay_concurrent",
]
