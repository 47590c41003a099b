"""Execution traces: the raw material for correctness checking.

A :class:`Trace` records the sequence of events, the source state after
every ``S_up`` (the paper's ``ss_0 .. ss_p``), and the warehouse view state
after every warehouse event (``ws_0 .. ws_q``).  The consistency checker
replays ``V[ss_i]`` over these states to classify a run against the
correctness hierarchy of Section 3.1.

:class:`HistoryRecorder` is the one writer of a trace and of the run's
action log: the synchronous kernel, the asyncio actors and the harness's
crash restart all record through it, so serials, detail strings, action
strings and state cadence cannot drift between frontends.
:func:`project_view` reads one member view's own trace back out of a
catalog's tagged one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

from repro.relational.bag import SignedBag
from repro.source.base import Source
from repro.source.updates import Update

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


class EventRecord:
    """One event, in global occurrence order."""

    __slots__ = ("seq", "kind", "detail")

    def __init__(self, seq: int, kind: str, detail: str) -> None:
        self.seq = seq
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"#{self.seq} {self.kind}: {self.detail}"


class Trace:
    """Recorded history of one simulation run."""

    def __init__(self) -> None:
        self.events: List[EventRecord] = []
        #: ``source_states[i]`` is ``ss_i`` — the base relations after the
        #: i-th update (``ss_0`` is the initial state).
        self.source_states: List[Dict[str, SignedBag]] = []
        #: ``view_states[j]`` is the materialized view after the j-th
        #: warehouse event (``view_states[0]`` is the initial view);
        #: read-only, and the same object as ``view_states[j-1]`` when
        #: the event changed no view.
        self.view_states: List[SignedBag] = []
        self._seq = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_event(self, kind: str, detail: str) -> None:
        self.events.append(EventRecord(self._seq, kind, detail))
        self._seq += 1

    def record_source_state(self, state: Dict[str, SignedBag]) -> None:
        self.source_states.append(state)

    def record_view_state(self, view: SignedBag) -> None:
        self.view_states.append(view)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def final_source_state(self) -> Dict[str, SignedBag]:
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
            f"{len(self.source_states)}, view_states={len(self.view_states)})"
        )


class HistoryRecorder:
    """Records one run's history: the single writer of a :class:`Trace`.

    Stores what Section 3.1 defines: ``ss_0`` — the one
    ``Source.snapshot()`` per source, taken here and never again — and
    the ordered events.  Every later ``ss_i`` is *folded*: ``ss_{i-1}``
    with the ``S_up`` event's update applied to a copy of the one
    relation it touches.  Consecutive states share every other relation,
    and the combined sequence (``trace.source_states``) and the updating
    source's own (``per_source_states``, what the cut-consistency checker
    reads) share the one new bag — recorded states are read-only.

    Also owns the global update serials, the ``S_up`` / ``S_qu`` /
    ``C_ref`` detail formats, the ``ws_j`` append after every warehouse
    event, and the action log: each call appends the kernel action string
    (:mod:`repro.kernel.sync`) of the step it records, so the synchronous
    kernel and the asyncio runtime log the same run identically and a log
    replays on the former (:mod:`repro.kernel.conformance`).

    ``view_state`` reads the warehouse's current view (``ws_j``); it is
    only called while ``record_trace`` holds, and what it returns is
    appended as it is.  Views are copy-on-write
    (:class:`~repro.warehouse.state.MaterializedView`), so the snapshot
    stays what the warehouse held at that event, and a warehouse that
    did not change hands out the same object again: consecutive
    ``view_states`` share an unchanged state the way ``source_states``
    share an untouched relation — a view's history is ``ws_0`` plus one
    bag per event that wrote a view.  ``record_trace=False`` keeps the
    serials and the action log but skips events and every O(rows) copy
    after ``ss_0``.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        view_state: Callable[[], SignedBag],
        record_trace: bool = True,
    ) -> None:
        self._view_state = view_state
        self.record_trace = record_trace
        self.trace = Trace()
        self.serial = 0
        #: The global order of recorded steps, as kernel action strings:
        #: ``update:<source>`` / ``answer:<source>`` /
        #: ``warehouse:<sender>[@k]`` / ``refresh:<client>`` plus the
        #: ``crash`` / ``recover`` markers.
        self.action_log: List[str] = []
        #: name -> [state after i updates at that source], for the
        #: cut-consistency checker.
        self.per_source_states: Dict[str, List[Dict[str, SignedBag]]] = {
            name: [source.snapshot()] for name, source in sources.items()
        }
        if record_trace:
            combined: Dict[str, SignedBag] = {}
            for states in self.per_source_states.values():
                combined.update(states[0])
            self.trace.record_source_state(combined)
            self.trace.record_view_state(view_state())

    def update(self, source_name: str, update: Update) -> int:
        """``S_up``: ``source_name`` just executed ``update``; its serial."""
        self.serial += 1
        self.action_log.append(f"update:{source_name}")
        if self.record_trace:
            self.trace.record_event(
                S_UP, f"U{self.serial}@{source_name} = {update!r}"
            )
            combined = self.trace.final_source_state
            relation = combined[update.relation].copy()
            relation.add(update.values, update.sign)
            self.trace.record_source_state({**combined, update.relation: relation})
            own = self.per_source_states[source_name]
            own.append({**own[-1], update.relation: relation})
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
        """A warehouse-side event, logged as ``action``; appends the next ``ws_j``.

        Except after ``W_crash``: the crashed process exposed nothing
        new, and the in-memory view it held is gone.  ``W_rec`` snapshots
        the *recovered* view so the checker classifies what readers can
        now observe (a duplicate of the pre-crash state when recovery is
        exact — harmless to the checker's dedup).
        """
        self.action_log.append(action)
        if self.record_trace:
            self.trace.record_event(kind, detail)
            if kind != W_CRASH:
                self.trace.record_view_state(self._view_state())


def project_view(trace: Trace, view_name: str) -> Trace:
    """One member view's own trace, read out of a catalog's tagged one.

    A :class:`~repro.warehouse.catalog.WarehouseCatalog` (or the merged
    facade of a sharded run) exposes ``(view_name, *row)`` rows; the
    projection keeps the events and source states and, per ``ws_j``, the
    rows tagged ``view_name`` with the tag stripped.
    ``check_trace(member.view, project_view(trace, name))`` classifies
    that view on its own timeline — the per-view guarantee of Section 7.
    """
    solo = Trace()
    solo.events = list(trace.events)
    solo.source_states = list(trace.source_states)
    previous = None
    for state in trace.view_states:
        # A ``ws_j`` that *is* ``ws_{j-1}`` projects to the same object.
        if state is not previous:
            previous = state
            projected = SignedBag(
                {row[1:]: count for row, count in state.items() if row[0] == view_name}
            )
        solo.view_states.append(projected)
    return solo
