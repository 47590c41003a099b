"""Source substrates: autonomous databases that know nothing about views.

A source (Section 1.1) performs exactly two duties: it executes local
updates and notifies the warehouse, and it answers queries the warehouse
sends.  Two interchangeable implementations are provided:

- :class:`repro.source.memory.MemorySource` — base relations held as
  :class:`~repro.relational.bag.SignedBag` objects, queries evaluated by
  the in-memory relational engine;
- :class:`repro.source.sqlite.SQLiteSource` — base relations held in a
  SQLite database, queries rendered to SQL (one statement per class of
  like terms, its bound tuples a ``VALUES`` table) and evaluated with bag
  semantics.

Both satisfy :class:`repro.source.base.Source` and return identical
answers for identical states (property-tested).
"""

from repro.source.base import Source
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.source.updates import DELETE, INSERT, Update, delete, insert

__all__ = [
    "DELETE",
    "INSERT",
    "MemorySource",
    "SQLiteSource",
    "Source",
    "Update",
    "delete",
    "insert",
]
