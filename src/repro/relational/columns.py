"""Columnar batches of signed tuples.

A :class:`ColumnBatch` is the batch-oriented twin of
:class:`~repro.relational.bag.SignedBag`: the same Z-multiset of rows, but
stored as parallel *column* lists plus one signed count vector instead of a
``row -> multiplicity`` mapping.  Row ``i`` of a batch is
``(columns[0][i], ..., columns[w-1][i])`` with signed multiplicity
``counts[i]``; rows may repeat (the batch is *unconsolidated*), and
consolidation back to canonical multiplicities happens exactly once, in
:meth:`to_bag`.

Why columns?  The relational hot path (``repro.relational.engine``) spends
its time selecting, joining, and projecting; in columnar form each of those
is a handful of ``map``/``itertools.compress`` passes over flat lists —
C-speed loops — instead of one Python-level predicate call and one tuple
allocation per candidate row.  No per-tuple wrapper objects
(:class:`~repro.relational.tuples.SignedTuple`) are ever created inside the
batch operators; ``tests/unit/test_invariants.py`` checks that invariant.

The vectorized operators over batches live in
:mod:`repro.relational.batch_ops`; this module is just the container and
its (cheap) invariants.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Sequence

from repro.relational.bag import SignedBag


class ColumnBatch:
    """Parallel column lists plus a signed count vector.

    Parameters
    ----------
    columns:
        One list per attribute position, all the same length.
    counts:
        Signed multiplicities, parallel to the columns.  Zero counts are
        legal inside a batch (they annihilate on :meth:`to_bag`).
    """

    __slots__ = ("columns", "counts")

    def __init__(
        self, columns: Sequence[List[object]], counts: List[int]
    ) -> None:
        n = len(counts)
        for column in columns:
            if len(column) != n:
                raise ValueError(
                    f"ragged batch: column of length {len(column)} "
                    f"with {n} counts"
                )
        self.columns: List[List[object]] = list(columns)
        self.counts: List[int] = counts

    # ------------------------------------------------------------------ #
    # Construction / conversion
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls, width: int) -> "ColumnBatch":
        return cls([[] for _ in range(width)], [])

    @classmethod
    def from_bag(cls, bag: SignedBag, width: int) -> "ColumnBatch":
        """Transpose a bag into columns (``width`` disambiguates empties)."""
        columns, counts = bag.to_columns(width)
        return cls(columns, counts)

    def to_bag(self, coefficient: int = 1) -> SignedBag:
        """Consolidate into a canonical :class:`SignedBag`."""
        return SignedBag.from_columns(self.columns, self.counts, coefficient)

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        """Number of attribute positions (the row arity)."""
        return len(self.columns)

    def __len__(self) -> int:
        """Number of (unconsolidated) rows in the batch."""
        return len(self.counts)

    def is_empty(self) -> bool:
        return not self.counts

    # ------------------------------------------------------------------ #
    # Row/column selection (the building blocks of the operators)
    # ------------------------------------------------------------------ #

    def compress(self, mask: Sequence[object]) -> "ColumnBatch":
        """Row filter by a parallel boolean mask."""
        return ColumnBatch(
            [list(compress(column, mask)) for column in self.columns],
            list(compress(self.counts, mask)),
        )

    def gather_columns(self, positions: Sequence[int]) -> "ColumnBatch":
        """Column gather (projection without consolidation).

        Positions may repeat or reorder; counts are shared, not copied.
        """
        return ColumnBatch(
            [self.columns[p] for p in positions], self.counts
        )

    def __repr__(self) -> str:
        return f"ColumnBatch(width={self.width}, rows={len(self.counts)})"
