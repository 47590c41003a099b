"""Concurrent warehouse runtime: actors over one async transport.

The synchronous drivers (:mod:`repro.simulation`,
:mod:`repro.multisource`) replay hand-scheduled interleavings; this
package runs the same components — sources, maintenance algorithms,
message types — as independent asyncio actors whose interleaving emerges
from concurrency and (optionally) injected transport faults, while
remaining fully deterministic under a fixed seed.

Durability rides on top: pass ``wal_dir=`` to :func:`run_concurrent` to
log every warehouse event to a :class:`~repro.durability.wal.WriteAheadLog`,
and a :class:`~repro.durability.crash.CrashPolicy` (re-exported here) to
kill and recover the warehouse mid-run.  Observability likewise: pass
``obs=Observability()`` (re-exported from :mod:`repro.obs`) to capture a
causal span trace and a metrics registry for the run.  See
``docs/RUNTIME.md``, ``docs/DURABILITY.md``, and ``docs/OBSERVABILITY.md``.
"""

from repro.durability.crash import CrashPolicy
from repro.obs.instrument import Observability
from repro.runtime.actors import (
    ActorMetrics,
    ClientActor,
    SourceActor,
    WarehouseActor,
    WarehouseUnit,
)
from repro.runtime.harness import RuntimeResult, run_concurrent
from repro.runtime.transport import ChannelStats, FaultPlan, InMemoryTransport

__all__ = [
    "ActorMetrics",
    "ChannelStats",
    "ClientActor",
    "CrashPolicy",
    "FaultPlan",
    "InMemoryTransport",
    "Observability",
    "RuntimeResult",
    "SourceActor",
    "WarehouseActor",
    "WarehouseUnit",
    "run_concurrent",
]
