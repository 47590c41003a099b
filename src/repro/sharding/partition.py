"""Partitioners: deterministic placement of views onto shards.

A partitioner maps a *view key* — the tuple identifying one member view
of the warehouse, ``(view_name,)`` today — to the shard that owns it.
The planner consults the resulting assignment once, at plan time; after
that every update and answer is routed by the plan, never by re-hashing,
so a partitioner only has to be a **deterministic pure function of the
key**.  That property is load-bearing: recovery re-plans from the same
catalog and must land every view on the same shard, and the conformance
suite replays merged shard logs against a single-shard baseline that
assumes stable ownership.  RPR007 (``repro.analysis``) enforces purity
statically — no wall clock, no randomness, no builtin ``hash()`` (salted
per process), no mutable captured state.

Three families:

- :class:`HashPartitioner` — CRC-32 of the key's canonical encoding,
  modulo the shard count.  Stable across processes and Python versions.
- :class:`RangePartitioner` — sorted boundary keys split the key space
  into contiguous ranges (shard ``i`` holds keys in
  ``[boundary[i-1], boundary[i])``), the classic ordered layout.
- :class:`ExplicitPartitioner` — a literal ``key -> shard`` table, for
  tests and benchmarks that need a precise placement.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: A view key: the tuple a partitioner places (today ``(view_name,)``).
ViewKey = Tuple[object, ...]


def _encode_key(key: ViewKey) -> bytes:
    """Canonical byte encoding of a key (stable across processes).

    ``repr`` of a tuple of strings/numbers is deterministic, unlike the
    builtin ``hash`` which is salted per interpreter start.
    """
    return repr(tuple(key)).encode("utf-8")


class Partitioner:
    """Base class: ``shard_of(key)`` places one view key on one shard."""

    #: Registry-style spec name (overridden by subclasses).
    kind = "abstract"

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise SimulationError(f"a partitioner needs >= 1 shard, got {shards}")
        self.shards = shards

    def shard_of(self, key: ViewKey) -> int:
        """The shard owning ``key`` — in ``range(self.shards)``, always."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.shards})"


class HashPartitioner(Partitioner):
    """CRC-32 of the canonical key encoding, modulo the shard count.

    CRC-32 rather than ``hash()``: Python salts string hashing per
    process, which would scatter the same catalog differently on every
    run — exactly the instability RPR007 exists to catch.
    """

    kind = "hash"

    def shard_of(self, key: ViewKey) -> int:
        return zlib.crc32(_encode_key(key)) % self.shards


class RangePartitioner(Partitioner):
    """Contiguous key ranges split by sorted boundary keys.

    ``boundaries`` holds ``shards - 1`` strictly increasing keys; a key
    lands on the number of boundaries at or below it, so shard 0 holds
    everything before ``boundaries[0]`` and the last shard everything
    from ``boundaries[-1]`` on.
    """

    kind = "range"

    def __init__(self, boundaries: Sequence[ViewKey]) -> None:
        super().__init__(len(boundaries) + 1)
        ordered = [tuple(boundary) for boundary in boundaries]
        if any(a >= b for a, b in zip(ordered, ordered[1:])):
            raise SimulationError(
                f"range boundaries must be strictly increasing: {ordered!r}"
            )
        self.boundaries: Tuple[ViewKey, ...] = tuple(ordered)

    def shard_of(self, key: ViewKey) -> int:
        return bisect_right(self.boundaries, tuple(key))

    def __repr__(self) -> str:
        return f"RangePartitioner(boundaries={list(self.boundaries)!r})"


class ExplicitPartitioner(Partitioner):
    """A literal assignment table (tests, benchmarks, migrations).

    Unknown keys are rejected rather than defaulted: an explicit layout
    that silently hashes strays would defeat its purpose.
    """

    kind = "explicit"

    def __init__(
        self, assignment: Mapping[ViewKey, int], shards: Optional[int] = None
    ) -> None:
        table: Dict[ViewKey, int] = {
            tuple(key): shard for key, shard in assignment.items()
        }
        if not table:
            raise SimulationError("an explicit partitioner needs >= 1 assignment")
        inferred = max(table.values()) + 1
        super().__init__(shards if shards is not None else inferred)
        for key, shard in table.items():
            if not 0 <= shard < self.shards:
                raise SimulationError(
                    f"assignment {key!r} -> {shard} outside range({self.shards})"
                )
        self.assignment = table

    def shard_of(self, key: ViewKey) -> int:
        try:
            return self.assignment[tuple(key)]
        except KeyError:
            raise SimulationError(
                f"explicit partitioner has no assignment for key {tuple(key)!r}"
            ) from None

    def __repr__(self) -> str:
        return (
            f"ExplicitPartitioner({len(self.assignment)} key(s), "
            f"shards={self.shards})"
        )


def make_partitioner(
    spec: object, shards: int, keys: Sequence[ViewKey] = ()
) -> Partitioner:
    """Resolve a CLI/harness partitioner spec to an instance.

    ``spec`` may already be a :class:`Partitioner` (returned as-is after
    a shard-count check), or one of the names ``"hash"`` / ``"range"``.
    A range layout needs boundary keys; they are derived by splitting the
    sorted ``keys`` universe into ``shards`` near-equal runs, which is
    what a static range assignment over a known catalog means.
    """
    if isinstance(spec, Partitioner):
        if spec.shards != shards:
            raise SimulationError(
                f"partitioner covers {spec.shards} shard(s), run wants {shards}"
            )
        return spec
    if spec == "hash":
        return HashPartitioner(shards)
    if spec == "range":
        if shards == 1:
            return RangePartitioner(())
        ordered = sorted(tuple(key) for key in keys)
        if len(ordered) < shards:
            raise SimulationError(
                f"range partitioning {len(ordered)} view(s) over {shards} "
                f"shards needs at least one view per shard"
            )
        step = len(ordered) / shards
        boundaries = [ordered[int(round(step * i))] for i in range(1, shards)]
        return RangePartitioner(boundaries)
    raise SimulationError(
        f"unknown partitioner spec {spec!r} (expected 'hash', 'range', or a "
        f"Partitioner instance)"
    )
