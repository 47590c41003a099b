"""Abstract source interface.

Concrete sources (in-memory, SQLite) implement this protocol.  The
simulation layer only ever calls these methods, so algorithms are agnostic
to where the base data actually lives — which is the whole premise of the
paper: the source is a black box that executes updates and answers queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Tuple

from repro.errors import SchemaError, UpdateError
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.source.updates import Update


class Source(ABC):
    """A database holding base relations, oblivious to warehouse views."""

    def __init__(self, schemas: Sequence[RelationSchema]) -> None:
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise SchemaError(f"source relations must have distinct names: {names}")
        self._schemas: Dict[str, RelationSchema] = {s.name: s for s in schemas}

    # ------------------------------------------------------------------ #
    # Catalog
    # ------------------------------------------------------------------ #

    @property
    def schemas(self) -> Tuple[RelationSchema, ...]:
        return tuple(self._schemas.values())

    def schema_for(self, relation: str) -> RelationSchema:
        try:
            return self._schemas[relation]
        except KeyError:
            raise SchemaError(f"source has no relation {relation!r}") from None

    def _check_update(self, update: Update) -> RelationSchema:
        schema = self.schema_for(update.relation)
        schema.validate_row(update.values)
        return schema

    # ------------------------------------------------------------------ #
    # The two source duties
    # ------------------------------------------------------------------ #

    @abstractmethod
    def apply_update(self, update: Update) -> None:
        """Execute an insert or delete against the base data.

        Deleting a tuple removes *one* occurrence (bag semantics); deleting
        a tuple that is not present raises :class:`UpdateError`.
        """

    @abstractmethod
    def evaluate(self, query: Query) -> SignedBag:
        """Evaluate a (possibly multi-term, signed) query on current data."""

    # ------------------------------------------------------------------ #
    # Introspection used by the test oracle and the cost model.  A real
    # legacy source would not offer these; the warehouse algorithms never
    # call them.
    # ------------------------------------------------------------------ #

    @abstractmethod
    def snapshot(self) -> Dict[str, SignedBag]:
        """Deep copy of the current base relations (oracle use only)."""

    @abstractmethod
    def cardinality(self, relation: str) -> int:
        """Current number of tuples (with duplicates) in ``relation``."""

    def load(self, relation: str, rows: Iterable[Sequence[object]]) -> None:
        """Bulk-insert initial data (not counted as notifiable updates)."""
        from repro.source.updates import insert

        for row in rows:
            self.apply_update(insert(relation, row))
