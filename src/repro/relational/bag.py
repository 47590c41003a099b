"""Duplicate-retaining relations with signed tuples.

The paper keeps duplicates in materialized views ("duplicate retention, or
at least a replication count, is essential if deletions are to be handled
incrementally" — Section 1.1) and defines ``+`` and ``-`` on relations of
signed tuples (Section 4.1):

    r1 + r2 = (pos(r1) U pos(r2)) - (neg(r1) U neg(r2))
    r1 - r2 = r1 + (-r2)

We represent such a relation as a mapping from tuple values to an integer
multiplicity (a Z-multiset, sometimes called a z-relation).  A positive
multiplicity ``n`` encodes ``n`` copies with a ``+`` sign; a negative
multiplicity encodes copies carrying ``-``.  Under this encoding the
paper's ``+`` is pointwise integer addition, unary ``-`` is pointwise
negation, and both operator laws used by the correctness proofs
(commutativity, associativity, distributivity of ``x`` over ``+``) hold by
construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.relational.tuples import PLUS, check_sign

Row = Tuple[object, ...]


class SignedBag:
    """A relation of signed tuples with integer multiplicities.

    The empty bag is falsy; bags compare equal when every tuple has the
    same multiplicity in both.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[Row, int] = None) -> None:
        self._counts: Dict[Row, int] = {}
        if counts:
            for row, count in counts.items():
                self.add(tuple(row), count)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[object]]) -> "SignedBag":
        """Bag of positive tuples, one occurrence per listed row."""
        bag = cls()
        for row in rows:
            bag.add(tuple(row), 1)
        return bag

    @classmethod
    def singleton(cls, row: Sequence[object], sign: int = PLUS) -> "SignedBag":
        bag = cls()
        bag.add(tuple(row), check_sign(sign))
        return bag

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[object]],
        counts: Sequence[int],
        coefficient: int = 1,
    ) -> "SignedBag":
        """Consolidate a columnar batch into a bag.

        ``columns`` are parallel column lists and ``counts`` the signed
        multiplicity vector (the representation of
        :class:`~repro.relational.columns.ColumnBatch`).  Rows may repeat;
        multiplicities accumulate and zeros annihilate, so the result is
        canonical.  ``coefficient`` scales every count (the term
        coefficient in :mod:`~repro.relational.engine`).
        """
        bag = cls()
        if coefficient != 1:
            counts = [coefficient * c for c in counts]
        store = bag._counts
        get = store.get
        if not columns:
            # Zero-arity rows all collapse onto the empty tuple.
            total = sum(counts)
            if total:
                store[()] = total
            return bag
        for row, count in zip(zip(*columns), counts):
            new = get(row, 0) + count
            if new:
                store[row] = new
            elif row in store:
                del store[row]
        return bag

    def to_columns(
        self, width: Optional[int] = None
    ) -> Tuple[List[List[object]], List[int]]:
        """Transpose into parallel column lists plus a count vector.

        The inverse of :meth:`from_columns` (up to row order, which is
        insertion order here — canonical representations go through
        :meth:`to_pairs`).  ``width`` disambiguates the column count for
        the empty bag; for non-empty bags it is validated against the
        stored rows.
        """
        if not self._counts:
            return [[] for _ in range(width or 0)], []
        rows = list(self._counts.keys())
        if width is not None and len(rows[0]) != width:
            raise ValueError(
                f"bag rows have arity {len(rows[0])}, expected {width}"
            )
        columns = [list(column) for column in zip(*rows)]
        return columns, list(self._counts.values())

    def copy(self) -> "SignedBag":
        clone = SignedBag()
        clone._counts = dict(self._counts)
        return clone

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, row: Sequence[object], count: int = 1) -> None:
        """Add ``count`` signed occurrences of ``row`` (count may be negative)."""
        if count == 0:
            return
        key = tuple(row)
        new = self._counts.get(key, 0) + count
        if new == 0:
            self._counts.pop(key, None)
        else:
            self._counts[key] = new

    def add_bag(self, other: "SignedBag") -> None:
        """In-place ``self + other``."""
        for row, count in other._counts.items():
            self.add(row, count)

    def discard_row(self, row: Sequence[object]) -> None:
        """Remove every occurrence of ``row`` regardless of multiplicity."""
        self._counts.pop(tuple(row), None)

    def clear(self) -> None:
        self._counts.clear()

    # ------------------------------------------------------------------ #
    # The paper's relation operators
    # ------------------------------------------------------------------ #

    def __add__(self, other: "SignedBag") -> "SignedBag":
        result = self.copy()
        result.add_bag(other)
        return result

    def __sub__(self, other: "SignedBag") -> "SignedBag":
        return self + (-other)

    def __neg__(self) -> "SignedBag":
        result = SignedBag()
        result._counts = {row: -count for row, count in self._counts.items()}
        return result

    def pos(self) -> "SignedBag":
        """The sub-bag of tuples carrying a plus sign."""
        result = SignedBag()
        result._counts = {r: c for r, c in self._counts.items() if c > 0}
        return result

    def neg(self) -> "SignedBag":
        """The sub-bag of tuples carrying a minus sign, as positive counts."""
        result = SignedBag()
        result._counts = {r: -c for r, c in self._counts.items() if c < 0}
        return result

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def multiplicity(self, row: Sequence[object]) -> int:
        return self._counts.get(tuple(row), 0)

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._counts  # type: ignore[arg-type]

    def items(self) -> Iterator[Tuple[Row, int]]:
        """Iterate ``(row, signed multiplicity)`` pairs."""
        return iter(self._counts.items())

    def rows(self) -> Iterator[Row]:
        """Iterate distinct rows (ignoring multiplicity and sign)."""
        return iter(self._counts.keys())

    def expand_rows(self) -> List[Row]:
        """Rows with positive multiplicity, repeated per multiplicity.

        Only valid for non-negative bags (e.g. base relations, final views).
        """
        out: List[Row] = []
        for row, count in sorted(self._counts.items(), key=lambda kv: repr(kv[0])):
            if count < 0:
                raise ValueError(
                    f"expand_rows on bag with negative multiplicity: {row!r} x {count}"
                )
            out.extend([row] * count)
        return out

    def to_pairs(self) -> List[Tuple[Row, int]]:
        """Canonical ``(row, signed multiplicity)`` pairs.

        Pairs are sorted by ``repr(row)`` (the same total order
        :meth:`expand_rows` and ``__repr__`` use), so equal bags always
        produce identical pair lists — the property the durability codec
        relies on for byte-stable encodings.
        """
        return sorted(self._counts.items(), key=lambda kv: repr(kv[0]))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[Sequence[object], int]], nonnegative: bool = False
    ) -> "SignedBag":
        """Rebuild a bag from :meth:`to_pairs` output, with validation.

        Each pair must be a ``(row, count)`` with an integral non-zero
        count and no row repeated; ``nonnegative=True`` additionally
        rejects minus-signed multiplicities (for base relations and
        installed views).  Raises ``TypeError``/``ValueError`` so that
        malformed persisted data is loudly rejected rather than clamped.
        """
        bag = cls()
        for pair in pairs:
            if not isinstance(pair, (tuple, list)) or len(pair) != 2:
                raise TypeError(f"pair must be (row, count), got {pair!r}")
            row, count = pair
            if type(count) is not int:
                raise TypeError(f"multiplicity must be int, got {count!r}")
            if count == 0:
                raise ValueError(f"zero multiplicity for row {row!r}")
            if nonnegative and count < 0:
                raise ValueError(f"negative multiplicity for row {row!r}: {count}")
            key = tuple(row)
            if key in bag._counts:
                raise ValueError(f"duplicate row in pairs: {key!r}")
            bag._counts[key] = count
        return bag

    def distinct_count(self) -> int:
        """Number of distinct rows present (with any nonzero multiplicity)."""
        return len(self._counts)

    def total_count(self) -> int:
        """Sum of absolute multiplicities (number of signed occurrences)."""
        return sum(abs(c) for c in self._counts.values())

    def is_empty(self) -> bool:
        return not self._counts

    def is_nonnegative(self) -> bool:
        """True when no tuple carries a minus sign."""
        return all(count > 0 for count in self._counts.values())

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __len__(self) -> int:
        return self.total_count()

    def __eq__(self, other: object) -> bool:
        if self is other:
            # Recorded histories share unchanged states by reference.
            return True
        if not isinstance(other, SignedBag):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        if not self._counts:
            return "SignedBag(empty)"
        parts = []
        for row, count in sorted(self._counts.items(), key=lambda kv: repr(kv[0])):
            sign = "+" if count > 0 else "-"
            inner = ",".join(repr(v) for v in row)
            mult = f"x{abs(count)}" if abs(count) != 1 else ""
            parts.append(f"{sign}[{inner}]{mult}")
        return f"SignedBag({' '.join(parts)})"
