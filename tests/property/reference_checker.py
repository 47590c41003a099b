"""The two checkers the one over cuts replaced, kept as its oracle.

:func:`repro.consistency.check_cuts` decides every level of Section 3.1
over the cuts of a run's per-source histories, and ``check_trace`` is its
one-coordinate call.  Before it there were two checkers: ``check_trace``
over one global sequence of source states, and the cut functions of
``repro.multisource.consistency`` over monotone paths of cuts (which set
``weakly_consistent = consistent`` and never claimed completeness).
Both are below as they were, apart from this docstring, the merged
imports and ``cut_report`` reading this module's
:class:`ConsistencyReport`.  ``tests/property/test_one_checker.py``
compares the one checker against them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.views import View
from repro.simulation.trace import Trace

Cut = Tuple[int, ...]
State = Dict[str, SignedBag]


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


def _as_bag(value: object) -> SignedBag:
    """Accept a live :class:`SignedBag` or its canonical pair form.

    States that round-tripped through ``repro.durability`` (or any JSON
    layer) arrive as ``[(row, count), ...]`` pairs; rebuild them through
    the same validated :meth:`SignedBag.from_pairs` path the codec uses.
    """
    if isinstance(value, SignedBag):
        return value
    return SignedBag.from_pairs([(tuple(row), count) for row, count in value])


def _merge(per_source: Mapping[str, List[State]], names: Sequence[str], cut: Cut) -> State:
    combined: State = {}
    for name, index in zip(names, cut):
        for relation, bag in per_source[name][index].items():
            combined[relation] = _as_bag(bag)
    return combined


def _dominates(a: Cut, b: Cut) -> bool:
    return all(x >= y for x, y in zip(a, b))


def check_cut_consistency(
    view: View,
    per_source_states: Mapping[str, List[State]],
    view_states: Sequence[SignedBag],
) -> bool:
    """True iff ``view_states`` follows a monotone path of consistent cuts.

    Exhaustive over the (small) cut lattice: maintains the antichain of
    minimal cuts reachable after matching each view state, so no greedy
    mis-commitment can cause a false negative.
    """
    names = sorted(per_source_states)
    limits = [len(per_source_states[name]) for name in names]
    all_cuts = list(itertools.product(*[range(limit) for limit in limits]))

    # Precompute the view value at every cut (lattices here are tiny:
    # (k_A+1) * (k_B+1) * ...).
    # evaluate_view dispatches through ``evaluate_oracle`` when present,
    # so ``view`` may also be a WarehouseCatalog (or a merged sharded
    # catalog's stand-in) posing as one big tagged view.
    value_at: Dict[Cut, SignedBag] = {
        cut: evaluate_view(view, _merge(per_source_states, names, cut))
        for cut in all_cuts
    }

    frontier: List[Cut] = [tuple(0 for _ in names)]
    previous_observed = None
    for observed in view_states:
        if observed is previous_observed:
            # The same object again (an event that changed no view):
            # matching it twice leaves the frontier where it is.
            continue
        previous_observed = observed
        matches = [
            cut
            for cut in all_cuts
            if value_at[cut] == observed
            and any(_dominates(cut, previous) for previous in frontier)
        ]
        if not matches:
            return False
        # Keep only minimal matches (the antichain) as the new frontier.
        frontier = [
            cut
            for cut in matches
            if not any(other != cut and _dominates(cut, other) for other in matches)
        ]
    return True


def cut_report(
    view: View,
    per_source_states: Mapping[str, List[State]],
    view_states: Sequence[SignedBag],
    final_view: SignedBag,
) -> "ConsistencyReport":
    """Classify a multi-source execution as a :class:`ConsistencyReport`.

    The single-source checker's levels carry over with cuts standing in
    for source-state prefixes: *consistent* (and *weakly consistent* —
    the two coincide here, since a monotone cut path orders every pair of
    observed states) means every view state sits on a monotone path of
    consistent cuts; *convergent* means the final view matches the final
    cut.  *Complete* is never claimed: with several autonomous sources
    there is no canonical global state sequence to be complete against.
    """
    consistent = check_cut_consistency(view, per_source_states, view_states)
    convergent = check_cut_convergence(view, per_source_states, final_view)
    return ConsistencyReport(
        convergent=convergent,
        weakly_consistent=consistent,
        consistent=consistent,
        complete=False,
        detail="cut-consistency over "
        f"{len(per_source_states)} source histories",
    )


def check_cut_convergence(
    view: View,
    per_source_states: Mapping[str, List[State]],
    final_view: SignedBag,
) -> bool:
    """The final view matches the view over every source's final state."""
    names = sorted(per_source_states)
    final_cut = tuple(len(per_source_states[name]) - 1 for name in names)
    return (
        evaluate_view(view, _merge(per_source_states, names, final_cut)) == final_view
    )
