"""In-memory source: base relations as signed bags.

The reference implementation — small, obviously correct, and used as the
oracle against which the SQLite source is property-tested.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

from repro.errors import UpdateError
from repro.relational.bag import SignedBag
from repro.relational.columns import ColumnBatch
from repro.relational.engine import evaluate_query
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.source.base import Source
from repro.source.updates import Update


class MemorySource(Source):
    """Base relations stored in Python dictionaries.

    Queries go through :func:`~repro.relational.engine.evaluate_query`,
    which runs each class of like terms as one columnar pass.  The source
    also keeps what that engine transposes: a relation's
    :class:`~repro.relational.columns.ColumnBatch` lives from the
    evaluation that first needed it until :meth:`apply_update` — the only
    writer of the relations; :meth:`load` goes through it — touches that
    relation.  Kept batches are read-only.
    """

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        initial: Dict[str, Iterable[Sequence[object]]] = None,
    ) -> None:
        super().__init__(schemas)
        self._relations: Dict[str, SignedBag] = {s.name: SignedBag() for s in schemas}
        #: Relation name -> its kept transpose (see the class docstring).
        self._batches: Dict[str, ColumnBatch] = {}
        if initial:
            for relation, rows in initial.items():
                self.load(relation, rows)

    def apply_update(self, update: Update) -> None:
        schema = self._check_update(update)
        bag = self._relations[schema.name]
        self._batches.pop(schema.name, None)
        if update.is_insert:
            bag.add(update.values, 1)
            return
        if bag.multiplicity(update.values) <= 0:
            raise UpdateError(
                f"cannot delete {update.values!r} from {update.relation!r}: not present"
            )
        bag.add(update.values, -1)

    def evaluate(self, query: Query) -> SignedBag:
        # Hash-join engine; equivalent to the reference query.evaluate()
        # (property-tested) but fast enough for benchmark workloads.
        return evaluate_query(query, self._relations, self._batches)

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
