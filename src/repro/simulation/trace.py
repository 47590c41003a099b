"""Execution traces: the raw material for correctness checking.

A :class:`Trace` records the sequence of events, the source state after
every ``S_up`` (the paper's ``ss_0 .. ss_p``), and the warehouse view state
after every warehouse event (``ws_0 .. ws_q``).  The consistency checker
replays ``V[ss_i]`` over these states to classify a run against the
correctness hierarchy of Section 3.1.

A run is stored the way Section 3.1 defines it: the initial states plus
what each event changed — every ``S_up``'s update, and the ``(row,
delta)`` pairs each warehouse event wrote to the view.  The state
sequences are folded from those the first time they are read.

:class:`HistoryRecorder` is the one writer of a trace and of the run's
action log: the synchronous kernel, the asyncio actors and the harness's
crash restart all record through it, so serials, detail strings, action
strings and state cadence cannot drift between frontends.
:func:`project_view` reads one member view's own trace back out of a
catalog's tagged one.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
)

from repro.relational.bag import SignedBag
from repro.source.base import Source
from repro.source.updates import Update
from repro.warehouse.state import Changes

# Event kinds, named after the paper's event types.  C_ref/W_ref extend
# the model with warehouse-client refresh requests (deferred timing);
# W_crash/W_rec mark process-fault injection and WAL recovery (these two
# never carry a view snapshot change the checker would classify).
S_UP = "S_up"
S_QU = "S_qu"
W_UP = "W_up"
W_ANS = "W_ans"
C_REF = "C_ref"
W_REF = "W_ref"
W_CRASH = "W_crash"
W_REC = "W_rec"

State = Dict[str, SignedBag]


class EventRecord:
    """One event, in global occurrence order."""

    __slots__ = ("seq", "kind", "detail")

    def __init__(self, seq: int, kind: str, detail: str) -> None:
        self.seq = seq
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"#{self.seq} {self.kind}: {self.detail}"


class _Fold:
    """One recorded sequence: entries as they happened, states once read.

    Each entry is a whole state or what changed since the state before
    it; ``step(previous, entry)`` turns it into the next state.  States
    are folded from the first entry not yet folded, so reading after
    every event costs one step per event.
    """

    __slots__ = ("entries", "states", "step")

    def __init__(self, step: Callable[[Any, Any], Any]) -> None:
        self.entries: List[Any] = []
        self.states: List[Any] = []
        self.step = step

    def read(self) -> List[Any]:
        states, entries = self.states, self.entries
        while len(states) < len(entries):
            previous = states[-1] if states else None
            states.append(self.step(previous, entries[len(states)]))
        return states

    def copy(self) -> "_Fold":
        clone = _Fold(self.step)
        clone.entries = list(self.entries)
        clone.states = list(self.states)
        return clone


def _next_source_state(previous: Optional[State], entry: Any) -> State:
    """``ss_i``: a whole state, or the ``S_up``'s update applied to a copy
    of the one relation it touches (every other relation is shared)."""
    if not isinstance(entry, Update):
        return entry
    relation = previous[entry.relation].copy()
    relation.add(entry.values, entry.sign)
    return {**previous, entry.relation: relation}


def _next_view_state(previous: Optional[SignedBag], entry: Any) -> SignedBag:
    """``ws_j``: a whole state, or the pairs the event wrote added to a
    copy of ``ws_{j-1}`` — which is returned itself when it wrote none."""
    if isinstance(entry, SignedBag):
        return entry
    if not entry:
        return previous
    state = previous.copy()
    for row, delta in entry:
        state.add(row, delta)
    return state


class Trace:
    """Recorded history of one simulation run."""

    def __init__(self) -> None:
        self.events: List[EventRecord] = []
        self._sources = _Fold(_next_source_state)
        self._views = _Fold(_next_view_state)
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_event(self, kind: str, detail: str) -> None:
        self.events.append(EventRecord(self._seq, kind, detail))
        self._seq += 1

    def record_source_state(self, state: State) -> None:
        """The next ``ss_i``, whole."""
        self._sources.entries.append(state)

    def record_update(self, update: Update) -> None:
        """The next ``ss_i`` is the last one with ``update`` applied."""
        self._sources.entries.append(update)

    def record_view_state(self, view: SignedBag) -> None:
        """The next ``ws_j``, whole (read-only from here on)."""
        self._views.entries.append(view)

    def record_view_changes(self, changes: Changes) -> None:
        """The next ``ws_j`` is the last one plus ``changes``."""
        self._views.entries.append(changes)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def source_states(self) -> List[State]:
        """``source_states[i]`` is ``ss_i`` — the base relations after the
        i-th update (``ss_0`` is the initial state).

        Folded on first read; consecutive states share every relation the
        update between them did not touch.  Read-only: the list and its
        states.
        """
        return self._sources.read()

    @property
    def view_states(self) -> List[SignedBag]:
        """``view_states[j]`` is the materialized view after the j-th
        warehouse event (``view_states[0]`` is the initial view).

        Folded on first read; the same object as ``view_states[j-1]``
        when the event changed no view.  Read-only: the list and its bags.
        """
        return self._views.read()

    @property
    def final_source_state(self) -> State:
        return self.source_states[-1]

    @property
    def final_view_state(self) -> SignedBag:
        return self.view_states[-1]

    def events_of_kind(self, kind: str) -> List[EventRecord]:
        return [e for e in self.events if e.kind == kind]

    def update_count(self) -> int:
        return len(self.events_of_kind(S_UP))

    def describe(self, max_events: Optional[int] = None) -> str:
        """Human-readable event listing (for examples and debugging)."""
        events = self.events if max_events is None else self.events[:max_events]
        lines = [repr(e) for e in events]
        if max_events is not None and len(self.events) > max_events:
            lines.append(f"... ({len(self.events) - max_events} more events)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Trace(events={len(self.events)}, source_states="
            f"{len(self._sources.entries)}, view_states={len(self._views.entries)})"
        )


class RecordedWarehouse(Protocol):
    """What a recorder reads from the warehouse: an algorithm, a catalog,
    a :class:`~repro.runtime.actors.WarehouseUnit` or the sharded facade."""

    def view_state(self) -> SignedBag: ...

    def view_changes(self) -> Optional[Changes]: ...


class _SourceHistories(Mapping[str, List[State]]):
    """``name -> [that source's state after i of its updates]``.

    Folded on first read from the trace's combined states: a source's
    next state is its last one with the relation its update touched
    replaced by the combined state's bag — one bag between the two.
    """

    def __init__(self, trace: Trace, initial: Mapping[str, State]) -> None:
        self._trace = trace
        self._states = {name: [state] for name, state in initial.items()}
        #: ``(source, relation)`` of each recorded update, in order; the
        #: i-th produced the trace's ``ss_{i+1}``.
        self._updates: List[Tuple[str, str]] = []
        self._folded = 0

    def record(self, source: str, relation: str) -> None:
        self._updates.append((source, relation))

    def __getitem__(self, name: str) -> List[State]:
        updates = self._updates
        if self._folded < len(updates):
            combined = self._trace.source_states
            for index in range(self._folded, len(updates)):
                source, relation = updates[index]
                own = self._states[source]
                own.append({**own[-1], relation: combined[index + 1][relation]})
            self._folded = len(updates)
        return self._states[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._states)

    def __len__(self) -> int:
        return len(self._states)


class HistoryRecorder:
    """Records one run's history: the single writer of a :class:`Trace`.

    Stores what Section 3.1 defines: ``ss_0`` and ``ws_0``, then what
    each event changed.  ``ss_0`` is the one ``Source.snapshot()`` per
    source, taken here and never again; each ``S_up`` stores its update
    and copies nothing.  ``ws_0`` is the warehouse's ``view_state()``;
    each later warehouse event stores the ``(row, delta)`` pairs it wrote
    (``warehouse.view_changes()``, journaled by
    :class:`~repro.warehouse.state.MaterializedView`'s one write
    routine), or a whole ``view_state()`` when there is no journal to
    read — at ``W_rec``, whose recovered incarnation has none yet.  So a
    recorded run writes its view in place, and the states are folded
    only when ``trace.source_states``, ``trace.view_states`` or
    :attr:`per_source_states` is read: an event that changed nothing
    yields the state before it, the same object.

    Also owns the global update serials, the ``S_up`` / ``S_qu`` /
    ``C_ref`` detail formats, the ``ws_j`` after every warehouse event,
    and the action log: each call appends the kernel action string
    (:mod:`repro.kernel.sync`) of the step it records, so the synchronous
    kernel and the asyncio runtime log the same run identically and a log
    replays on the former (:mod:`repro.kernel.conformance`).

    ``record_trace=False`` keeps the serials and the action log but
    records no event and opens no journal.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        warehouse: RecordedWarehouse,
        record_trace: bool = True,
    ) -> None:
        self._warehouse = warehouse
        self.record_trace = record_trace
        self.trace = Trace()
        self.serial = 0
        #: The global order of recorded steps, as kernel action strings:
        #: ``update:<source>`` / ``answer:<source>`` /
        #: ``warehouse:<sender>[@k]`` / ``refresh:<client>`` plus the
        #: ``crash`` / ``recover`` markers.
        self.action_log: List[str] = []
        initial = {name: source.snapshot() for name, source in sources.items()}
        self._histories = _SourceHistories(self.trace, initial)
        #: name -> [state after i updates at that source], for the
        #: cut-consistency checker (read-only, like the trace's states).
        self.per_source_states: Mapping[str, List[State]] = self._histories
        if record_trace:
            combined: State = {}
            for state in initial.values():
                combined.update(state)
            self.trace.record_source_state(combined)
            # Opens the journals (or drains one an earlier run left open):
            # ws_0 is whole, and each event from here on is its changes.
            warehouse.view_changes()
            self.trace.record_view_state(warehouse.view_state())

    def update(self, source_name: str, update: Update) -> int:
        """``S_up``: ``source_name`` just executed ``update``; its serial."""
        self.serial += 1
        self.action_log.append(f"update:{source_name}")
        if self.record_trace:
            self.trace.record_event(
                S_UP, f"U{self.serial}@{source_name} = {update!r}"
            )
            self.trace.record_update(update)
            self._histories.record(source_name, update.relation)
        return self.serial

    def query(self, source_name: str, query_id: int, answer: SignedBag) -> None:
        """``S_qu``: ``source_name`` evaluated query ``query_id``."""
        self.action_log.append(f"answer:{source_name}")
        if self.record_trace:
            self.trace.record_event(
                S_QU, f"{source_name}: Q{query_id} -> {answer.total_count()} tuple(s)"
            )

    def refresh(self, serial: int, client: Optional[str] = None) -> None:
        """``C_ref``: a client asked.

        Anonymous in legacy one-source runs, whose ``REFRESH`` workload
        marker no ``refresh:<client>`` action reproduces: those log a
        bare ``refresh``.
        """
        self.action_log.append("refresh" if client is None else f"refresh:{client}")
        if self.record_trace:
            prefix = f"{client} " if client is not None else ""
            self.trace.record_event(C_REF, f"{prefix}refresh #{serial}")

    def event(self, kind: str, detail: str, action: str) -> None:
        """A warehouse-side event, logged as ``action``; records the next ``ws_j``.

        Except after ``W_crash``: the crashed process exposed nothing
        new, and the in-memory view it held is gone.  ``W_rec`` records
        the *recovered* view whole (its incarnation has no journal yet)
        so the checker classifies what readers can now observe (a
        duplicate of the pre-crash state when recovery is exact —
        harmless to the checker's dedup).
        """
        self.action_log.append(action)
        if self.record_trace:
            self.trace.record_event(kind, detail)
            if kind != W_CRASH:
                changes = self._warehouse.view_changes()
                if changes is None:
                    self.trace.record_view_state(self._warehouse.view_state())
                else:
                    self.trace.record_view_changes(changes)


def project_view(trace: Trace, view_name: str) -> Trace:
    """One member view's own trace, read out of a catalog's tagged one.

    A :class:`~repro.warehouse.catalog.WarehouseCatalog` (or the merged
    facade of a sharded run) exposes ``(view_name, *row)`` rows; the
    projection keeps the events and source states and, per recorded
    ``ws_j``, the rows or changes tagged ``view_name`` with the tag
    stripped — O(changes), and the tagged states are never folded.
    ``check_trace(member.view, project_view(trace, name))`` classifies
    that view on its own timeline — the per-view guarantee of Section 7.
    """
    solo = Trace()
    solo.events = list(trace.events)
    solo._sources = trace._sources.copy()
    for entry in trace._views.entries:
        if isinstance(entry, SignedBag):
            rows = {
                row[1:]: count for row, count in entry.items() if row[0] == view_name
            }
            solo.record_view_state(SignedBag(rows))
        else:
            solo.record_view_changes(
                [(row[1:], delta) for row, delta in entry if row[0] == view_name]
            )
    return solo
