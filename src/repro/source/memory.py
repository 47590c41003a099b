"""In-memory source: base relations as signed bags.

The reference implementation — small, obviously correct, and used as the
oracle against which the SQLite source is property-tested.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import UpdateError
from repro.relational.bag import SignedBag
from repro.relational.columns import ColumnBatch
from repro.relational.engine import Indexes, evaluate_query
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.source.base import Source
from repro.source.updates import Update

Row = Tuple[object, ...]


class MemorySource(Source):
    """Base relations stored in Python dictionaries.

    Queries go through :func:`~repro.relational.engine.evaluate_query`,
    which joins a term's bound operands first and expands from them by
    probing the free relations on their join keys.  The source keeps what
    that engine reads: each relation's
    :class:`~repro.relational.columns.ColumnBatch`, from the evaluation
    that first needed it, and a bucket map (key -> row positions) for
    every (relation, key positions) the engine has probed.

    :meth:`apply_update` — the only writer of the relations; :meth:`load`
    goes through it — maintains both in O(1): a new row is appended to
    the batch and its position added to every bucket map of its relation,
    and an existing row has its count adjusted in place.  A row deleted
    down to count 0 stays (the engine skips it) until dead rows outnumber
    live ones; then the relation's batch and bucket maps are dropped, and
    the next probe rebuilds them.  To the engine a kept batch is
    read-only: the source writes it only here, between evaluations.
    """

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        initial: Dict[str, Iterable[Sequence[object]]] = None,
    ) -> None:
        super().__init__(schemas)
        self._relations: Dict[str, SignedBag] = {s.name: SignedBag() for s in schemas}
        #: Relation name -> its kept batch (see the class docstring).
        self._batches: Dict[str, ColumnBatch] = {}
        #: Relation name -> key positions -> bucket map over its batch.
        self._indexes: Indexes = {}
        #: Relation name -> row -> its position in the kept batch; built
        #: at the first update after the batch, while the two agree.
        self._positions: Dict[str, Dict[Row, int]] = {}
        #: Relation name -> rows of its kept batch at count 0.
        self._dead: Dict[str, int] = {}
        if initial:
            for relation, rows in initial.items():
                self.load(relation, rows)

    def apply_update(self, update: Update) -> None:
        schema = self._check_update(update)
        name = schema.name
        bag = self._relations[name]
        row = update.values
        if update.is_insert:
            sign = 1
        elif bag.multiplicity(row) <= 0:
            raise UpdateError(
                f"cannot delete {row!r} from {update.relation!r}: not present"
            )
        else:
            sign = -1
        bag.add(row, sign)
        batch = self._batches.get(name)
        if batch is not None:
            self._maintain(name, batch, row, sign)

    def _maintain(self, name: str, batch: ColumnBatch, row: Row, sign: int) -> None:
        """Apply one signed row to a kept batch and its bucket maps."""
        positions = self._positions.get(name)
        if positions is None:
            positions = self._positions[name] = {
                kept: at for at, kept in enumerate(zip(*batch.columns))
            }
        counts = batch.counts
        at = positions.get(row)
        if at is None:
            at = positions[row] = len(counts)
            for column, value in zip(batch.columns, row):
                column.append(value)
            counts.append(sign)
            indexes = self._indexes.get(name)
            if indexes:
                for probe, buckets in indexes.items():
                    # The key form of batch_ops.bucket_map.
                    if len(probe) == 1:
                        key = row[probe[0]]
                    else:
                        key = tuple(map(row.__getitem__, probe))
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [at]
                    else:
                        bucket.append(at)
            return
        count = counts[at]
        if not count:
            # Back from the dead: the bag now holds this row's values,
            # which may be a different but equal spelling (1 for 1.0).
            for column, value in zip(batch.columns, row):
                column[at] = value
            self._dead[name] -= 1
        count = counts[at] = count + sign
        if not count:
            dead = self._dead[name] = self._dead.get(name, 0) + 1
            if 2 * dead > len(counts):
                self._forget(name)

    def _forget(self, name: str) -> None:
        """Drop a relation's kept batch and everything built on it."""
        for kept in (self._batches, self._indexes, self._positions, self._dead):
            kept.pop(name, None)

    def evaluate(self, query: Query) -> SignedBag:
        # Hash-join engine; equivalent to the reference query.evaluate()
        # (property-tested) but fast enough for benchmark workloads.
        return evaluate_query(query, self._relations, self._batches, self._indexes)

    def snapshot(self) -> Dict[str, SignedBag]:
        return {name: bag.copy() for name, bag in self._relations.items()}

    def cardinality(self, relation: str) -> int:
        self.schema_for(relation)
        return self._relations[relation].total_count()

    def relation(self, name: str) -> SignedBag:
        """Direct read access to one base relation (oracle use only)."""
        self.schema_for(name)
        return self._relations[name].copy()

    def __repr__(self) -> str:
        sizes = ", ".join(
            f"{name}:{bag.total_count()}" for name, bag in self._relations.items()
        )
        return f"MemorySource({sizes})"
