"""``repro.serving`` — the bounded-staleness read-serving tier.

A cache-aside layer between read clients and the warehouse, invalidated
*precisely* by the maintenance stream (after each atomic warehouse event,
the serving keys of the rows its views journaled) and willing to serve
entries up to a configured number of maintenance events stale, annotated
with their lag.  See ``docs/SERVING.md`` for the full design.

The package is read-only by construction — it never mutates warehouse
state and never sends on a channel; the bound-0 equivalence tests fail
on any write from it.
"""

from repro.serving.backend import WarehouseReader, reader_for
from repro.serving.cache import (
    FIFOPolicy,
    LRUPolicy,
    POLICIES,
    ReadResult,
    ServingCache,
)
from repro.serving.client import ReadClientActor, ReadMismatch
from repro.serving.keys import Key, ViewKey, row_key
from repro.serving.report import serving_report

__all__ = [
    "FIFOPolicy",
    "Key",
    "LRUPolicy",
    "POLICIES",
    "ReadClientActor",
    "ReadMismatch",
    "ReadResult",
    "ServingCache",
    "ViewKey",
    "WarehouseReader",
    "reader_for",
    "row_key",
    "serving_report",
]
