"""Assembly of a run's serving/freshness report — one source of truth.

The asyncio runtime (``repro.runtime.harness``, sharded or not) ends a
run by packing the serving tier's counters and the per-view
:meth:`~repro.serving.cache.ServingCache.freshness` staleness into the
``RuntimeResult.serving`` dict.  The block lives here so the freshness
API surfaced by the CLI (``repro freshness``) and the runtime can never
drift apart.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.serving.backend import WarehouseReader
from repro.serving.cache import ServingCache


def serving_report(
    cache: Optional[ServingCache], reader: Optional[WarehouseReader]
) -> Optional[Dict[str, object]]:
    """The ``RuntimeResult.serving`` section for one finished run.

    With a cache: the cache's run-level counters plus ``backend_reads``
    (reads that fell through to the warehouse) and ``freshness`` (the
    per-view staleness map).  Without a cache but with a reader, every
    read was a backend read.  Neither: ``None`` (no serving tier ran).
    """
    if cache is not None:
        serving = cache.report()
        serving["backend_reads"] = reader.reads if reader is not None else 0
        serving["freshness"] = cache.freshness()
        return serving
    if reader is not None:
        return {"reads": reader.reads, "backend_reads": reader.reads}
    return None
