"""Materialized view storage with duplicate retention.

Duplicates (or at least a replication count) are essential for handling
deletions incrementally (Section 1.1, footnote 1), so the view contents are
a non-negative :class:`~repro.relational.bag.SignedBag`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ViewStateError
from repro.relational.bag import SignedBag
from repro.relational.views import View

Row = Tuple[object, ...]
#: ``(row, signed count)`` pairs, in the order a view applied them.
Changes = List[Tuple[Row, int]]


class MaterializedView:
    """The warehouse's stored copy of one view's contents.

    The contents are **copy-on-write**: :meth:`view_state` hands out the
    live bag itself as a read-only snapshot and marks it shared, and the
    next write copies it once before touching it — so a view nobody
    looked at is written in place, and a view nobody wrote is never
    copied.  Every write goes through :meth:`_write`, the one place that
    knows the contents changed: it drops :attr:`encoded_contents`, bumps
    :attr:`version`, records the dirty rows, keeps the serving-key
    index (:meth:`rows_for_key`) current and journals the pairs it
    applied for every reader that asked for them (:meth:`take_changes`).

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
        #: Whether a :meth:`view_state` snapshot aliases ``_contents``;
        #: while it does, the next write copies before it mutates.
        self._shared = False
        #: Bumped by every write that changes anything: two reads of the
        #: same version saw the same contents, which is what lets the
        #: catalog re-use an unchanged member's tagged rows.
        self.version = 0
        #: Rows whose multiplicity changed since the last ``drain_dirty``.
        #: The serving tier turns these into precise cache invalidations;
        #: the initial contents are not dirty (caches start empty).
        self._dirty: Set[Row] = set()
        #: Rows an ``"allow"`` delta left with a minus sign (empty for
        #: every other policy), so a later ``"raise"`` / ``"clamp"`` finds
        #: them without scanning the bag.
        self._negative: Set[Row] = set()
        #: Canonical text of the contents: a memo slot owned by
        #: :mod:`repro.durability.codec`, filled when a snapshot renders
        #: them and dropped by every write below, so that a view which
        #: did not change between two snapshots is not rendered twice.
        self.encoded_contents: Optional[str] = None
        #: ``serving key -> {row: multiplicity}`` over the current contents
        #: (the whole row is the key when the view has no serving key).
        #: Built by the first lookup and kept current by every write
        #: after it, so a view nobody serves never pays for it.
        self._by_key: Optional[Dict[Row, Dict[Row, int]]] = None
        self._key_positions: Optional[Tuple[int, ...]] = None
        #: Per reader, the ``(row, delta)`` pairs written since its last
        #: :meth:`take_changes`.  A reader has no journal until its first
        #: call, so a view nobody records or snapshots journals nothing.
        self._journals: Dict[Optional[Hashable], Changes] = {}

    def _key_of(self, row: Row) -> Row:
        positions = self._key_positions
        return row if positions is None else tuple(row[i] for i in positions)

    def _index(self) -> Dict[Row, Dict[Row, int]]:
        index = self._by_key
        if index is None:
            self._key_positions = self.view.serving_key_positions()
            index = self._by_key = {}
            for row, count in self._contents.items():
                index.setdefault(self._key_of(row), {})[row] = count
        return index

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def view_state(self) -> SignedBag:
        """The current contents as a **read-only** snapshot, not a copy.

        The caller must not edit the bag (use :meth:`as_bag` for that);
        in return it stays what the view held at this moment — the next
        write copies the contents first — and an unchanged view hands
        out the same object again.
        """
        self._shared = True
        return self._contents

    def as_bag(self) -> SignedBag:
        """A copy of the current contents, the caller's to edit."""
        return self._contents.copy()

    def rows(self) -> List[Row]:
        """Current rows with duplicates, in a stable order."""
        return self._contents.expand_rows()

    def multiplicity(self, row: Sequence[object]) -> int:
        return self._contents.multiplicity(row)

    def rows_for_key(self, key: Sequence[object]) -> SignedBag:
        """The current rows whose serving key is ``key``, as a fresh bag.

        One index lookup, not a scan: what the serving tier reads on a
        cache miss.
        """
        return SignedBag(self._index().get(tuple(key)))

    def serving_keys(self) -> Iterator[Row]:
        """Every serving key some current row projects to, once each."""
        return iter(self._index())

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

    def take_changes(self, reader: Optional[Hashable] = None) -> Optional[Changes]:
        """The ``(row, delta)`` pairs written since ``reader``'s last call,
        in order.

        Adding them to the state the previous call described gives the
        current contents.  The first call has no previous state: it opens
        the reader's journal and returns ``None``, meaning "record a full
        :meth:`view_state`".  Each reader has a journal of its own — the
        history recorder is the default reader, a WAL's snapshot chain
        another — so neither takes what the other has not read.
        """
        changes = self._journals.get(reader)
        self._journals[reader] = []
        return changes

    @property
    def _journal(self) -> Optional[Changes]:
        """The history recorder's journal: the default reader's."""
        return self._journals.get(None)

    def close_journal(self, reader: Hashable) -> None:
        """Stop journaling for ``reader`` (a no-op if it has no journal)."""
        self._journals.pop(reader, None)

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

    def _write(self, changes: Sequence[Tuple[Row, int]]) -> None:
        """Add ``(row, signed count)`` pairs to the contents.

        The only code that changes the contents, and so the only code
        that copies a shared bag, drops the rendered text, bumps the
        version, marks rows dirty, moves them in the index and journals
        them.  Callers validate first: nothing here raises.
        """
        if not changes:
            return
        if self._shared:
            self._contents = self._contents.copy()
            self._shared = False
        for journal in self._journals.values():
            journal.extend(changes)
        self.encoded_contents = None
        self.version += 1
        contents = self._contents
        negative = self._negative
        index = self._by_key
        for row, delta in changes:
            self._dirty.add(row)
            contents.add(row, delta)
            count = contents.multiplicity(row)
            if count < 0:
                negative.add(row)
            elif negative:
                negative.discard(row)
            if index is None:
                continue
            key = self._key_of(row)
            if count:
                index.setdefault(key, {})[row] = count
            elif key in index:
                group = index[key]
                group.pop(row, None)
                if not group:
                    del index[key]

    def apply_delta(self, delta: SignedBag, on_negative: str = "raise") -> None:
        """``MV <- MV + delta``, in time proportional to the delta.

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
        changes = list(delta.items())
        if on_negative != "allow":
            multiplicity = self._contents.multiplicity
            # Rows the sum would hold with a minus sign: the touched ones
            # that go below zero, and any an earlier "allow" left there.
            negative = {row for row, count in changes if multiplicity(row) + count < 0}
            negative.update(row for row in self._negative if row not in delta)
            if negative:
                if on_negative == "raise":
                    # The error path may scan: name the rows in bag order.
                    negatives = [
                        row
                        for row, count in (self._contents + delta).items()
                        if count < 0
                    ]
                    raise ViewStateError(
                        f"delta drives view {self.view.name!r} negative on "
                        f"{negatives!r}"
                    )
                # Clamp: those rows end up absent.
                changes = [
                    (row, count) for row, count in changes if row not in negative
                ] + [(row, -multiplicity(row)) for row in negative]
        self._write(changes)

    def replace(self, contents: SignedBag) -> None:
        """Install a complete new state (used by RV and by ECA-Key)."""
        if not contents.is_nonnegative():
            raise ViewStateError(
                f"replacement contents for {self.view.name!r} contain negative tuples"
            )
        # The bag difference holds exactly the rows whose multiplicity
        # differs between the outgoing and incoming states.
        self._write(list((contents - self._contents).items()))

    def key_delete(self, relation: str, values: Sequence[object]) -> int:
        """The ``key-delete(MV, r, t)`` operation of Section 5.4.

        Removes every view tuple whose columns corresponding to
        ``relation``'s key equal the key of ``values``.  Returns the number
        of tuple occurrences removed.
        """
        doomed = _key_matches(self._contents, self.view, relation, values)
        self._write([(row, -count) for row, count in doomed])
        return sum(abs(count) for _, count in doomed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaterializedView):
            return NotImplemented
        return self.view == other.view and self._contents == other._contents

    def __repr__(self) -> str:
        return f"MaterializedView({self.view.name}, {self._contents!r})"


def _key_matches(
    contents: SignedBag, view: View, relation: str, values: Sequence[object]
) -> List[Tuple[Row, int]]:
    """``(row, multiplicity)`` of every tuple matching ``values``' key."""
    schema = view.schema_for(relation)
    key = schema.key_of(values)
    positions = view.key_output_positions(relation)
    return [
        (row, count)
        for row, count in contents.items()
        if tuple(row[i] for i in positions) == key
    ]


def key_delete(
    contents: SignedBag, view: View, relation: str, values: Sequence[object]
) -> int:
    """Delete from ``contents`` all tuples matching ``values``' key.

    Standalone so ECA-Key and Strobe can apply key-deletes to a working
    copy; the installed view's own :meth:`MaterializedView.key_delete`
    writes through its one write routine instead.
    """
    removed = 0
    for row, count in _key_matches(contents, view, relation, values):
        removed += abs(count)
        contents.discard_row(row)
    return removed
