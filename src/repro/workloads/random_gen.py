"""Randomized workloads for property-based and stress testing.

Workloads are pre-generated (the simulation replays them), so the
generator tracks a shadow copy of the base relations to guarantee deletes
always target existing tuples, and — when ``respect_keys`` — that inserts
never duplicate a declared key (the integrity assumption ECA-Key relies
on).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from repro.relational.bag import SignedBag
from repro.relational.schema import RelationSchema
from repro.source.updates import Update, delete, insert

Row = Tuple[object, ...]

T = TypeVar("T")


class ZipfSampler:
    """Seeded Zipf-distributed rank sampler: ``P(rank i) ∝ 1/(i+1)^theta``.

    ``theta`` controls skew: 0 is uniform (and is special-cased to a
    single ``randrange`` draw so uniform sampling consumes the RNG stream
    exactly like the historical code paths it replaces), ~1 is classic
    web-like skew, and large values collapse onto rank 0 — the hot-key
    regime.  Sampling is inverse-CDF over a precomputed table, so a given
    ``(n, theta, seed)`` triple always yields the same rank sequence
    (the determinism invariant of ``tests/unit/test_invariants.py``).
    """

    def __init__(
        self,
        n: int,
        theta: float,
        seed: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if n < 1:
            raise ValueError(f"need at least one rank, got n={n}")
        if not theta >= 0:  # NaN fails >= too
            raise ValueError(f"zipf theta must be >= 0, got {theta}")
        self.n = n
        self.theta = theta
        #: Callers embedding the sampler in a larger generator pass their
        #: own ``rng`` so one seed governs the whole artifact.
        self._rng = rng if rng is not None else random.Random(seed)
        self._cdf: List[float] = []
        if theta > 0:
            total = 0.0
            weights = [1.0 / (i + 1) ** theta for i in range(n)]
            norm = sum(weights)
            for weight in weights:
                total += weight / norm
                self._cdf.append(total)
            self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        """The next rank in ``[0, n)``."""
        if self.theta == 0:
            return self._rng.randrange(self.n)
        u = self._rng.random()
        # Binary search the CDF (n is small; bisect avoids an import).
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def choose(self, items: Sequence[T]) -> T:
        """Pick from ``items`` with rank 0 = ``items[0]`` the hottest."""
        if len(items) != self.n:
            raise ValueError(
                f"sampler built for {self.n} ranks, got {len(items)} items"
            )
        return items[self.sample()]


def zipf_read_workload(
    keys: Sequence[T], count: int, theta: float = 1.0, seed: int = 0
) -> List[T]:
    """``count`` reads over ``keys`` with Zipf-distributed popularity.

    Rank order is shuffled once (seeded) so the hot key is not always the
    lexicographically-first one; the result is fully determined by
    ``(tuple(keys), count, theta, seed)``.
    """
    if not keys:
        raise ValueError("cannot generate reads over an empty key universe")
    rng = random.Random(seed)
    ranked = list(keys)
    rng.shuffle(ranked)
    sampler = ZipfSampler(len(ranked), theta, seed=rng.randrange(2**31))
    return [ranked[sampler.sample()] for _ in range(count)]


def random_workload(
    schemas: Sequence[RelationSchema],
    k: int,
    seed: int = 0,
    initial: Optional[Dict[str, Sequence[Row]]] = None,
    delete_ratio: float = 0.4,
    domain: int = 6,
    respect_keys: bool = False,
) -> List[Update]:
    """A stream of ``k`` inserts/deletes that is valid against ``initial``.

    Deletes pick a tuple currently present (accounting for earlier updates
    in the stream); when no tuple exists an insert is generated instead.
    """
    if k < 0:
        raise ValueError(f"update count must be >= 0, got {k}")
    if not 0.0 <= delete_ratio <= 1.0:
        raise ValueError(f"delete_ratio must be in [0, 1], got {delete_ratio}")
    rng = random.Random(seed)
    shadow: Dict[str, SignedBag] = {s.name: SignedBag() for s in schemas}
    keys_in_use: Dict[str, Set[Row]] = {s.name: set() for s in schemas}
    by_name = {s.name: s for s in schemas}
    if initial:
        for name, rows in initial.items():
            for row in rows:
                shadow[name].add(tuple(row), 1)
                if by_name[name].key is not None:
                    keys_in_use[name].add(by_name[name].key_of(row))

    def fresh_row(schema: RelationSchema) -> Optional[Row]:
        for _ in range(200):
            row = tuple(rng.randrange(domain) for _ in schema.attributes)
            if respect_keys and schema.key is not None:
                if schema.key_of(row) in keys_in_use[schema.name]:
                    continue
            return row
        return None

    workload: List[Update] = []
    while len(workload) < k:
        schema = by_name[rng.choice([s.name for s in schemas])]
        bag = shadow[schema.name]
        want_delete = rng.random() < delete_ratio and not bag.is_empty()
        if want_delete:
            row = rng.choice(list(bag.rows()))
            bag.add(row, -1)
            if schema.key is not None and bag.multiplicity(row) == 0:
                keys_in_use[schema.name].discard(schema.key_of(row))
            workload.append(delete(schema.name, row))
        else:
            row = fresh_row(schema)
            if row is None:
                continue  # key domain exhausted for this relation; retry
            bag.add(row, 1)
            if schema.key is not None:
                keys_in_use[schema.name].add(schema.key_of(row))
            workload.append(insert(schema.name, row))
    return workload
