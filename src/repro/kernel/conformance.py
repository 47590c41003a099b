"""Cross-kernel conformance: replay a concurrent run synchronously.

The run's :class:`~repro.simulation.trace.HistoryRecorder` logs every
recorded step — source updates, source answers, atomic warehouse events
(tagged with the channel they consumed), client refreshes — as a global
``action_log`` of kernel action strings.  :func:`replay_concurrent`
feeds that log to a fresh :class:`~repro.kernel.sync.SyncKernel` over
twin sources and a twin algorithm.  Because both kernels dispatch
through :func:`repro.kernel.dispatch.dispatch_event`, share the
per-source FIFO discipline and record through the same writer, the
replay must reproduce the concurrent run's trace event-for-event and
log the very actions it was fed — the conformance suite asserts exactly
that.

Crash/recovery runs are refused: a crash abandons in-memory state the
synchronous kernel has no action for, so those executions are compared
through the recovery tests instead.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Sequence

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import SimulationError
from repro.kernel.sync import SyncKernel
from repro.source.base import Source
from repro.source.updates import Update

__all__ = ["replay_concurrent"]


def replay_concurrent(
    action_log: Sequence[str],
    sources: Mapping[str, Source],
    algorithm: WarehouseAlgorithm,
    workloads: Mapping[str, Sequence[Update]],
) -> SyncKernel:
    """Replay a concurrent run's action log on the synchronous kernel.

    Returns the kernel after the last step; its ``trace``,
    ``per_source_states`` and ``action_log`` are the replay's own record
    (``kernel.action_log == action_log``: it took exactly the logged steps).

    Parameters
    ----------
    action_log:
        ``RuntimeResult.action_log`` from the run to reproduce.
    sources:
        Twin sources, loaded with the same *initial* data the concurrent
        run started from (not the post-run state).
    algorithm:
        A twin algorithm, initialized like the concurrent run's.
    workloads:
        ``source name -> updates`` exactly as the concurrent run
        partitioned them; the log's ``update:<source>`` order rebuilds
        the global interleaving.
    """
    refused = {"crash", "recover"}
    for entry in action_log:
        if entry in refused:
            raise SimulationError(
                "cannot replay a run with crash/recovery markers — "
                "the synchronous kernel has no action for abandoned state"
            )
    remaining: Dict[str, Deque[Update]] = {
        name: deque(updates) for name, updates in workloads.items()
    }
    global_workload: List[Update] = []
    for entry in action_log:
        if entry.startswith("update:"):
            name = entry.split(":", 1)[1]
            try:
                global_workload.append(remaining[name].popleft())
            except (KeyError, IndexError):
                raise SimulationError(
                    f"action log expects an update at source {name!r} "
                    f"beyond its workload"
                ) from None
    kernel = SyncKernel(sources, algorithm, global_workload)
    for entry in action_log:
        kernel.step("update" if entry.startswith("update:") else entry)
    return kernel
