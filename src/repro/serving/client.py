"""The read-serving client: drives cache-aside reads against the warehouse.

:class:`ReadClientActor` consumes a pre-generated read workload (a
sequence of ``(view, key)`` addresses — see
:func:`repro.workloads.random_gen.zipf_read_workload`) and performs one
cache-aside read per item.  Two properties matter more than realism:

- **Interleaving invariance.**  The actor never touches the transport
  and yields to the event loop exactly once per read, hit or miss, so
  the write-path interleaving of a run is *identical* for every cache
  configuration — including cache-off.  That is what makes hit rates
  comparable across staleness bounds and the bound-0 equivalence
  property meaningful.
- **Verifiability.**  With ``verify=True`` every served answer is
  compared, atomically (no await in between), against
  :meth:`WarehouseReader.scan <repro.serving.backend.WarehouseReader.scan>`
  — the frontend's whole ``view_state()`` filtered on the key, which
  shares nothing with the index the served value came through — at the
  same point in the event sequence; mismatches are recorded, and at
  staleness bound 0 there must be none.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Sequence

from repro.serving.backend import WarehouseReader
from repro.serving.cache import ReadResult, ServingCache


class ReadMismatch:
    """A cached answer that differed from the uncached one (verify mode)."""

    __slots__ = ("reader_name", "index", "result", "expected")

    def __init__(
        self, reader_name: str, index: int, result: ReadResult, expected: object
    ) -> None:
        self.reader_name = reader_name
        self.index = index
        self.result = result
        self.expected = expected

    def __repr__(self) -> str:
        return (
            f"ReadMismatch({self.reader_name}, read #{self.index}, "
            f"{self.result!r} != {self.expected!r})"
        )


class ReadClientActor:
    """Serves a read workload through the cache (or directly, cache-off)."""

    def __init__(
        self,
        name: str,
        cache: Optional[ServingCache],
        reader: WarehouseReader,
        workload: Sequence[object],
        verify: bool = False,
        metrics: object = None,
    ) -> None:
        self.name = name
        self.cache = cache
        self.reader = reader
        self._workload = list(workload)
        self._verify = verify
        self.metrics = metrics
        self.results: List[ReadResult] = []
        self.mismatches: List[ReadMismatch] = []
        if metrics is not None:
            metrics.declare("reads", "cache_hits", "cache_stale", "cache_misses")

    async def run(self) -> None:
        for index, (view_name, key) in enumerate(self._workload):
            if self.cache is None:
                value = self.reader.read(view_name, key)
                result = ReadResult(view_name, key, value, "direct")
            else:
                result = self.cache.read(
                    view_name, key, self.reader.loader(view_name, key)
                )
                if self._verify:
                    # Atomic with the serve: no await separates the cached
                    # answer from the oracle scan, so both observe the same
                    # warehouse state.  The scan, not ``read``: an index
                    # that missed a write must not vouch for itself.
                    expected = self.reader.scan(view_name, key)
                    if result.value != expected:
                        self.mismatches.append(
                            ReadMismatch(self.name, index, result, expected)
                        )
            self.results.append(result)
            if self.metrics is not None:
                self.metrics.bump("reads")
                if result.status == "hit":
                    self.metrics.bump("cache_hits")
                elif result.status == "stale":
                    self.metrics.bump("cache_stale")
                elif result.status == "miss":
                    self.metrics.bump("cache_misses")
            # Exactly one scheduling point per read, regardless of hit or
            # miss — the interleaving-invariance contract (module docs).
            await asyncio.sleep(0)
