"""Materialized view storage with duplicate retention.

Duplicates (or at least a replication count) are essential for handling
deletions incrementally (Section 1.1, footnote 1), so the view contents are
a non-negative :class:`~repro.relational.bag.SignedBag`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import ViewStateError
from repro.relational.bag import SignedBag
from repro.relational.views import View

Row = Tuple[object, ...]


class MaterializedView:
    """The warehouse's stored copy of one view's contents.

    Parameters
    ----------
    view:
        The view definition this materialization belongs to.
    initial:
        Initial contents; defaults to empty.  Must be non-negative.
    """

    def __init__(self, view: View, initial: SignedBag = None) -> None:
        self.view = view
        contents = initial.copy() if initial is not None else SignedBag()
        if not contents.is_nonnegative():
            raise ViewStateError(
                f"initial contents of {view.name!r} contain negative tuples"
            )
        self._contents = contents
        #: Rows whose multiplicity changed since the last ``drain_dirty``.
        #: The serving tier turns these into precise cache invalidations;
        #: the initial contents are not dirty (caches start empty).
        self._dirty: Set[Row] = set()
        #: Canonical text of the contents: a memo slot owned by
        #: :mod:`repro.durability.codec`, filled when a snapshot renders
        #: them and dropped by every write below, so that a view which
        #: did not change between two snapshots is not rendered twice.
        self.encoded_contents: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def as_bag(self) -> SignedBag:
        """A copy of the current contents."""
        return self._contents.copy()

    def rows(self) -> List[Row]:
        """Current rows with duplicates, in a stable order."""
        return self._contents.expand_rows()

    def multiplicity(self, row: Sequence[object]) -> int:
        return self._contents.multiplicity(row)

    def contents_pairs(self) -> List[Tuple[Row, int]]:
        """Canonical ``(row, multiplicity)`` pairs of the current contents.

        The durability codec persists view contents through this so equal
        views always serialize identically regardless of insertion order.
        """
        return self._contents.to_pairs()

    def cardinality(self) -> int:
        return self._contents.total_count()

    def is_empty(self) -> bool:
        return self._contents.is_empty()

    def drain_dirty(self) -> Set[Row]:
        """Rows touched by writes since the last drain (and reset the set).

        Every write path (:meth:`apply_delta`, :meth:`replace`,
        :meth:`key_delete`) records the rows whose multiplicity it changed;
        over-reporting is allowed (a clamped delta row counts), dropping a
        changed row is not — cache invalidation depends on completeness.
        """
        dirtied = self._dirty
        self._dirty = set()
        return dirtied

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def apply_delta(self, delta: SignedBag, on_negative: str = "raise") -> None:
        """``MV <- MV + delta``.

        ``on_negative`` controls what happens when the result would hold a
        tuple with negative multiplicity:

        - ``"raise"`` (default): raise
          :class:`ViewStateError` — in a correct algorithm the net effect
          applied to the view never deletes tuples that are not there.
        - ``"clamp"``: drop negative entries; this
          is what a naive system that "fails to delete a missing tuple"
          would do, and lets the anomalous baseline run to completion.
        - ``"allow"``: keep signed counts.  Used by the unbuffered ECA
          variant (Section 5.2's convergent-but-not-consistent strawman),
          whose intermediate states are by design invalid.
        """
        if on_negative not in ("raise", "clamp", "allow"):
            raise ValueError(f"unknown on_negative policy {on_negative!r}")
        updated = self._contents + delta
        if not updated.is_nonnegative() and on_negative != "allow":
            if on_negative == "raise":
                negatives = [row for row, count in updated.items() if count < 0]
                raise ViewStateError(
                    f"delta drives view {self.view.name!r} negative on {negatives!r}"
                )
            clamped = SignedBag()
            for row, count in updated.items():
                if count > 0:
                    clamped.add(row, count)
            updated = clamped
        self._contents = updated
        self.encoded_contents = None
        for row, _ in delta.items():
            self._dirty.add(row)

    def replace(self, contents: SignedBag) -> None:
        """Install a complete new state (used by RV and by ECA-Key)."""
        if not contents.is_nonnegative():
            raise ViewStateError(
                f"replacement contents for {self.view.name!r} contain negative tuples"
            )
        # Dirty exactly the rows whose multiplicity differs between the
        # outgoing and incoming states (the bag difference holds them all).
        for row, _ in (contents - self._contents).items():
            self._dirty.add(row)
        self._contents = contents.copy()
        self.encoded_contents = None

    def key_delete(self, relation: str, values: Sequence[object]) -> int:
        """The ``key-delete(MV, r, t)`` operation of Section 5.4.

        Removes every view tuple whose columns corresponding to
        ``relation``'s key equal the key of ``values``.  Returns the number
        of tuple occurrences removed.
        """
        self.encoded_contents = None
        return key_delete(
            self._contents, self.view, relation, values, dirtied=self._dirty
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaterializedView):
            return NotImplemented
        return self.view == other.view and self._contents == other._contents

    def __repr__(self) -> str:
        return f"MaterializedView({self.view.name}, {self._contents!r})"


def key_delete(
    contents: SignedBag,
    view: View,
    relation: str,
    values: Sequence[object],
    dirtied: Optional[Set[Row]] = None,
) -> int:
    """Delete from ``contents`` all tuples matching ``values``' key.

    Standalone so ECA-Key can apply key-deletes to its COLLECT working copy
    as well as to the installed view.  ``dirtied``, when given, collects the
    removed rows (the installed-view caller threads its dirty set through).
    """
    schema = view.schema_for(relation)
    key = schema.key_of(values)
    positions = view.key_output_positions(relation)
    doomed = [
        row
        for row, _ in contents.items()
        if tuple(row[i] for i in positions) == key
    ]
    removed = 0
    for row in doomed:
        removed += abs(contents.multiplicity(row))
        contents.discard_row(row)
        if dirtied is not None:
            dirtied.add(row)
    return removed
