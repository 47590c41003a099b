"""Execution traces: the raw material for correctness checking.

A :class:`Trace` records the sequence of events, the source state after
every ``S_up`` (the paper's ``ss_0 .. ss_p``), and the warehouse view state
after every warehouse event (``ws_0 .. ws_q``).  The consistency checker
replays ``V[ss_i]`` over these snapshots to classify a run against the
correctness hierarchy of Section 3.1.

:class:`HistoryRecorder` is the one writer of a trace: the synchronous
kernel and the asyncio harness both record through it, so serials, detail
strings and snapshot cadence cannot drift between frontends.
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
        #: warehouse event (``view_states[0]`` is the initial view).
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

    Owns the global update serials, the ``S_up`` / ``S_qu`` / ``C_ref``
    detail formats, the combined source snapshot ``ss_i`` after every
    update, the per-source histories the cut-consistency checker reads,
    and the ``ws_j`` append after every warehouse event.

    ``record_trace=False`` keeps the serials but skips events and every
    O(rows) snapshot.
    """

    def __init__(
        self,
        sources: Mapping[str, Source],
        record_trace: bool = True,
    ) -> None:
        self._sources = dict(sources)
        self.record_trace = record_trace
        self.trace = Trace()
        self.serial = 0
        #: name -> [state after i updates at that source], for the
        #: cut-consistency checker.
        self.per_source_states: Dict[str, List[Dict[str, SignedBag]]] = {
            name: [source.snapshot()] for name, source in self._sources.items()
        }

    def _snapshot(self) -> Dict[str, SignedBag]:
        combined: Dict[str, SignedBag] = {}
        for source in self._sources.values():
            combined.update(source.snapshot())
        return combined

    def begin(self, view_state: Callable[[], SignedBag]) -> None:
        """``ss_0`` and ``ws_0``: the initial states."""
        if self.record_trace:
            self.trace.record_source_state(self._snapshot())
            self.trace.record_view_state(view_state())

    def update(self, source_name: str, update: Update) -> int:
        """``S_up``: ``source_name`` just executed ``update``; its serial."""
        self.serial += 1
        if self.record_trace:
            self.trace.record_event(
                S_UP, f"U{self.serial}@{source_name} = {update!r}"
            )
            self.trace.record_source_state(self._snapshot())
            self.per_source_states[source_name].append(
                self._sources[source_name].snapshot()
            )
        return self.serial

    def query(self, source_name: str, query_id: int, answer: SignedBag) -> None:
        """``S_qu``: ``source_name`` evaluated query ``query_id``."""
        if self.record_trace:
            self.trace.record_event(
                S_QU, f"{source_name}: Q{query_id} -> {answer.total_count()} tuple(s)"
            )

    def refresh(self, serial: int, client: Optional[str] = None) -> None:
        """``C_ref``: a client (anonymous in legacy one-source runs) asked."""
        if self.record_trace:
            prefix = f"{client} " if client is not None else ""
            self.trace.record_event(C_REF, f"{prefix}refresh #{serial}")

    def event(
        self,
        kind: str,
        detail: str,
        view_state: Optional[Callable[[], SignedBag]] = None,
    ) -> None:
        """A warehouse-side event; ``view_state`` appends the next ``ws_j``.

        A callable rather than a bag, so a disabled recorder never pays
        for the copy.  ``W_crash`` passes none: the crashed process
        exposed nothing new.
        """
        if self.record_trace:
            self.trace.record_event(kind, detail)
            if view_state is not None:
                self.trace.record_view_state(view_state())


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
    solo.view_states = [
        SignedBag(
            {row[1:]: count for row, count in state.items() if row[0] == view_name}
        )
        for state in trace.view_states
    ]
    return solo
