"""Classify a simulation trace against the paper's correctness hierarchy.

Section 3.1 defines, for a finite execution with source states
``ss_0..ss_p`` and warehouse view states ``ws_0..ws_q``:

- **Convergence** — ``V[ws_q] = V[ss_p]``: after all activity ceases the
  view matches the final source state.
- **Weak consistency** — every view state equals ``V[ss_j]`` for *some*
  source state ``ss_j``.
- **Consistency** — weak consistency with an order-preserving assignment:
  for ``ws_i < ws_j`` there are ``ss_k <= ss_l`` with matching contents.
- **Strong consistency** — consistency + convergence.
- **Completeness** — strong consistency, and every source state is
  reflected in some view state (order-preserving in both directions).

The checker evaluates the view definition over every recorded source
snapshot (the oracle ``V[ss_i]``) and runs subsequence matching against
the recorded view states.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.views import View
from repro.simulation.trace import Trace


class ConsistencyReport:
    """Outcome of checking one trace.  Truthy accessors per property."""

    def __init__(
        self,
        convergent: bool,
        weakly_consistent: bool,
        consistent: bool,
        complete: bool,
        detail: str = "",
    ) -> None:
        self.convergent = convergent
        self.weakly_consistent = weakly_consistent
        self.consistent = consistent
        self.complete = complete
        self.detail = detail

    @property
    def strongly_consistent(self) -> bool:
        return self.consistent and self.convergent

    def level(self) -> str:
        """The strongest property satisfied, as a label."""
        if self.complete:
            return "complete"
        if self.strongly_consistent:
            return "strongly consistent"
        if self.consistent:
            return "consistent"
        if self.weakly_consistent:
            return "weakly consistent"
        if self.convergent:
            return "convergent"
        return "incorrect"

    def __repr__(self) -> str:
        return f"ConsistencyReport({self.level()})"


def _dedupe_consecutive(states: Sequence[SignedBag]) -> List[SignedBag]:
    out: List[SignedBag] = []
    for state in states:
        if not out or state != out[-1]:
            out.append(state)
    return out


def _changed(states: Sequence[SignedBag]) -> List[Tuple[int, SignedBag]]:
    """``(j, ws_j)`` for every state that is not the very object before it.

    A recorder appends the same object while the view does not change
    (``MaterializedView`` is copy-on-write); such a ``ws_j`` has the
    verdict of ``ws_{j-1}`` at every level, so each object is hashed and
    compared once.
    """
    return [
        (index, state)
        for index, state in enumerate(states)
        if index == 0 or state is not states[index - 1]
    ]


def _is_subsequence(needle: Sequence[SignedBag], haystack: Sequence[SignedBag]) -> bool:
    """Greedy order-preserving containment check."""
    position = 0
    for wanted in needle:
        while position < len(haystack) and haystack[position] != wanted:
            position += 1
        if position >= len(haystack):
            return False
        position += 1
    return True


def _order_preserving_match(
    view_states: Sequence[SignedBag], oracle_states: Sequence[SignedBag]
) -> bool:
    """Consistency: each view state maps to an oracle state, non-decreasing.

    Greedy matching to the earliest feasible oracle index is optimal here
    because later view states can only benefit from a smaller pointer.
    """
    pointer = 0
    for view_state in view_states:
        index = pointer
        while index < len(oracle_states) and oracle_states[index] != view_state:
            index += 1
        if index >= len(oracle_states):
            return False
        pointer = index
    return True


def check_trace(view: View, trace: Trace) -> ConsistencyReport:
    """Evaluate a trace against every level of the hierarchy."""
    oracle: List[SignedBag] = [
        evaluate_view(view, state) for state in trace.source_states
    ]
    views: List[SignedBag] = list(trace.view_states)
    details: List[str] = []

    convergent = views[-1] == oracle[-1]
    if not convergent:
        details.append(
            f"final view {views[-1]!r} != V[final source] {oracle[-1]!r}"
        )

    changed = _changed(views)
    oracle_set = {state for state in oracle}
    weak = True
    for index, view_state in changed:
        if view_state not in oracle_set:
            weak = False
            details.append(
                f"view state #{index} {view_state!r} matches no source state"
            )
            break

    views = [state for _, state in changed]
    consistent = weak and _order_preserving_match(views, oracle)
    if weak and not consistent:
        details.append("view states match source states but out of order")

    strongly = consistent and convergent
    complete = False
    if strongly:
        complete = _is_subsequence(_dedupe_consecutive(oracle), _dedupe_consecutive(views))
        if not complete:
            details.append("some source state is reflected in no view state")

    return ConsistencyReport(
        convergent=convergent,
        weakly_consistent=weak,
        consistent=consistent,
        complete=complete,
        detail="; ".join(details),
    )
