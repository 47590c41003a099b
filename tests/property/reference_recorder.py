"""The eager history recorder, kept as the oracle for the folded one.

:class:`~repro.simulation.trace.HistoryRecorder` stores ``ss_0``, ``ws_0``
and what each event changed, and folds the states when they are read.
It used to store whole states as it went: after every warehouse event
the warehouse's ``view_state()`` (copy-on-write made that one copy of the
view per event that wrote it), and after every ``S_up`` a copy of the
relation the update touched.  :class:`EagerRecorder` is that recorder,
over plain lists; :func:`recording_both` runs it beside the real one on
any frontend, fed the very same calls.

A catalog (and the sharded facade) used to hand out the same tagged
union while no member's view was written, by remembering each member's
write count.  They build a fresh union on each call now, so the eager
recorder keeps that rule itself: it reads every member view's journal
under its own name and repeats the last state when none was written.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple
from unittest import mock

from repro.relational.bag import SignedBag
from repro.serving.keys import members
from repro.simulation.trace import (
    C_REF,
    S_QU,
    S_UP,
    W_CRASH,
    EventRecord,
    HistoryRecorder,
)

State = Dict[str, SignedBag]

#: The journal reader the eager recorder witnesses view writes with.
WITNESS = "eager"


class EagerTrace:
    """What the checkers read of a trace, as lists filled while the run goes."""

    def __init__(self) -> None:
        self.events: List[EventRecord] = []
        self.source_states: List[State] = []
        self.view_states: List[SignedBag] = []

    @property
    def final_source_state(self) -> State:
        return self.source_states[-1]

    @property
    def final_view_state(self) -> SignedBag:
        return self.view_states[-1]

    def record_event(self, kind: str, detail: str) -> None:
        self.events.append(EventRecord(len(self.events), kind, detail))


class EagerRecorder:
    """The recorder before its histories were folded: a state per event."""

    def __init__(
        self,
        sources: Mapping[str, object],
        warehouse: object,
        record_trace: bool = True,
    ) -> None:
        self._warehouse = warehouse
        self.record_trace = record_trace
        self.trace = EagerTrace()
        self.serial = 0
        self.action_log: List[str] = []
        self.per_source_states: Dict[str, List[State]] = {
            name: [source.snapshot()] for name, source in sources.items()
        }
        if record_trace:
            combined: State = {}
            for states in self.per_source_states.values():
                combined.update(states[0])
            self.trace.source_states.append(combined)
            self._wrote()
            self.trace.view_states.append(warehouse.view_state())

    def _wrote(self) -> bool:
        """Whether some member view was written since the last call; a
        member with no journal yet (the first call, a recovered one)
        counts as written."""
        changes = [
            member.mv.take_changes(WITNESS)
            for member in members(self._warehouse).values()
        ]
        return any(change != [] for change in changes)

    def _view_state(self) -> SignedBag:
        """The warehouse's ``view_state()``, or the last one while no view
        was written."""
        if self._wrote() or not self.trace.view_states:
            return self._warehouse.view_state()
        return self.trace.view_states[-1]

    def update(self, source_name: str, update) -> int:
        self.serial += 1
        self.action_log.append(f"update:{source_name}")
        if self.record_trace:
            self.trace.record_event(S_UP, f"U{self.serial}@{source_name} = {update!r}")
            combined = self.trace.final_source_state
            relation = combined[update.relation].copy()
            relation.add(update.values, update.sign)
            self.trace.source_states.append({**combined, update.relation: relation})
            own = self.per_source_states[source_name]
            own.append({**own[-1], update.relation: relation})
        return self.serial

    def query(self, source_name: str, query_id: int, answer: SignedBag) -> None:
        self.action_log.append(f"answer:{source_name}")
        if self.record_trace:
            self.trace.record_event(
                S_QU, f"{source_name}: Q{query_id} -> {answer.total_count()} tuple(s)"
            )

    def refresh(self, serial: int, client: Optional[str] = None) -> None:
        self.action_log.append("refresh" if client is None else f"refresh:{client}")
        if self.record_trace:
            prefix = f"{client} " if client is not None else ""
            self.trace.record_event(C_REF, f"{prefix}refresh #{serial}")

    def event(self, kind: str, detail: str, action: str) -> None:
        self.action_log.append(action)
        if self.record_trace:
            self.trace.record_event(kind, detail)
            if kind != W_CRASH:
                self.trace.view_states.append(self._view_state())


class BothRecorders(HistoryRecorder):
    """The real recorder, with an :class:`EagerRecorder` fed every call too."""

    def __init__(self, sources, warehouse, record_trace: bool = True) -> None:
        self.eager = EagerRecorder(sources, warehouse, record_trace)
        super().__init__(sources, warehouse, record_trace)

    def update(self, source_name, update) -> int:
        self.eager.update(source_name, update)
        return super().update(source_name, update)

    def query(self, source_name, query_id, answer) -> None:
        self.eager.query(source_name, query_id, answer)
        super().query(source_name, query_id, answer)

    def refresh(self, serial, client=None) -> None:
        self.eager.refresh(serial, client)
        super().refresh(serial, client)

    def event(self, kind, detail, action) -> None:
        self.eager.event(kind, detail, action)
        super().event(kind, detail, action)


@contextmanager
def recording_both() -> Iterator[List[BothRecorders]]:
    """Every run started inside records through :class:`BothRecorders`;
    yields the list they are appended to, in construction order."""
    made: List[BothRecorders] = []

    def build(*args, **kwargs) -> BothRecorders:
        made.append(BothRecorders(*args, **kwargs))
        return made[-1]

    with mock.patch("repro.kernel.sync.HistoryRecorder", build), mock.patch(
        "repro.runtime.harness.HistoryRecorder", build
    ):
        yield made


def sharing(states: List[object]) -> List[bool]:
    """``states[j] is states[j - 1]`` for every j >= 1."""
    return [states[j] is states[j - 1] for j in range(1, len(states))]


def relation_sharing(states: List[State]) -> List[Tuple[bool, ...]]:
    """Per consecutive pair of source states, which relations are one bag."""
    return [
        tuple(states[j][name] is states[j - 1][name] for name in sorted(states[j]))
        for j in range(1, len(states))
    ]
