"""Classify a run against the paper's correctness hierarchy (Section 3.1).

A run is each source's history of states and the warehouse's view states
``ws_0 .. ws_q``.  A **cut** picks one prefix of every source's history,
``(i_A, i_B, ...)``; cuts are ordered coordinate by coordinate, and a
single source's ``ss_0 .. ss_p`` is the case with one coordinate.  With
``V[c]`` the view over the sources at cut ``c``:

- **Convergence** — the last view state equals ``V`` at the final cut.
- **Weak consistency** — every view state equals ``V[c]`` for *some* cut.
- **Consistency** — the view states match a monotone path of cuts from
  the zero cut: for ``ws_i < ws_j`` there are cuts ``c_i <= c_j`` with
  matching contents.
- **Strong consistency** — consistency + convergence.
- **Completeness** — strong consistency, and some maximal chain of cuts
  from the zero cut to the final cut (each step moves one coordinate by
  one) has ``V``-values that, consecutive repeats dropped, are the view
  states with consecutive repeats dropped: every source state on it is
  reflected in some view state, in order.

``V[c]`` is evaluated lazily and memoised: each view state's minimal
matches are searched upward from the cut the one before it matched,
nearest first, so a run that tracks its sources evaluates few cuts of
the lattice.  A run that falls short of a level carries a
:class:`Witness` for it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.views import View
from repro.simulation.trace import Trace

Cut = Tuple[int, ...]
State = Dict[str, SignedBag]


class Witness(NamedTuple):
    """Why a run falls short of the next level: the index of the first
    view state that does, and the last cut it was matched against (for
    convergence, the final cut)."""

    view_index: int
    cut: Cut


class ConsistencyReport:
    """Outcome of checking one run.  Truthy accessors per property."""

    def __init__(
        self,
        convergent: bool,
        weakly_consistent: bool,
        consistent: bool,
        complete: bool,
        witness: Optional[Witness] = None,
    ) -> None:
        self.convergent = convergent
        self.weakly_consistent = weakly_consistent
        self.consistent = consistent
        self.complete = complete
        self.witness = witness

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

    @property
    def detail(self) -> str:
        """The witness, in words ("" for a complete run)."""
        if self.witness is None:
            return ""
        index, cut = self.witness
        if not self.weakly_consistent:
            text = f"view state #{index} equals V at no cut (last matched at {cut})"
        elif not self.consistent:
            text = f"view state #{index} equals V at no cut at or above {cut}"
        elif not self.convergent:
            return f"final view state #{index} != V at the final cut {cut}"
        else:
            return (
                f"every chain of cuts through the view states leaves view state "
                f"#{index} at {cut} for a source state no view state reflects"
            )
        if not self.convergent:
            text += "; the final view state != V at the final cut"
        return text

    def __repr__(self) -> str:
        return f"ConsistencyReport({self.level()})"


class _Lattice:
    """``V[c]`` for the cuts of the sources' histories, memoised."""

    def __init__(self, view: View, per_source_states: Mapping[str, List[State]]) -> None:
        self.view = view
        self.histories = [per_source_states[name] for name in sorted(per_source_states)]
        self.final: Cut = tuple(len(history) - 1 for history in self.histories)
        self.zero: Cut = tuple(0 for _ in self.final)
        self.values: Dict[Cut, SignedBag] = {}

    def value(self, cut: Cut) -> SignedBag:
        found = self.values.get(cut)
        if found is None:
            if len(cut) == 1:
                state = self.histories[0][cut[0]]
            else:
                state = {}
                for history, index in zip(self.histories, cut):
                    state.update(history[index])
            # evaluate_view dispatches through ``evaluate_oracle`` when
            # present, so ``view`` may be a WarehouseCatalog (or a merged
            # sharded catalog's stand-in) posing as one tagged view.
            found = self.values[cut] = evaluate_view(self.view, state)
        return found

    def successors(self, cut: Cut) -> Iterator[Cut]:
        for position, index in enumerate(cut):
            if index < self.final[position]:
                yield cut[:position] + (index + 1,) + cut[position + 1 :]

    def matches_above(self, cut: Cut, observed: SignedBag) -> Iterator[Cut]:
        """The minimal cuts at or above ``cut`` where ``V`` is ``observed``,
        nearest first: breadth-first upward, never past a match."""
        found: List[Cut] = []
        seen = {cut}
        queue = deque(seen)
        while queue:
            here = queue.popleft()
            if any(_dominates(here, match) for match in found):
                continue
            if self.value(here) == observed:
                found.append(here)
                yield here
                continue
            for successor in self.successors(here):
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)

    def path(self, states: Sequence[SignedBag]) -> Tuple[int, Cut]:
        """How many of ``states`` the furthest monotone path of cuts from
        the zero cut matches, and the cut it matched the last of them at.

        Depth first over each state's minimal matches, nearest first.  A
        cut the rest cannot be matched above is remembered, and so is
        every cut above it: whatever path works from a cut works from
        every cut below it.
        """
        failed: Dict[int, List[Cut]] = {}
        best = (0, self.zero)
        stack = [(0, self.zero, self.matches_above(self.zero, states[0]))]
        while stack:
            position, cut, matches = stack[-1]
            match = next(matches, None)
            if match is None:
                failed.setdefault(position, []).append(cut)
                stack.pop()
                continue
            if position + 1 == len(states):
                return len(states), match
            if any(_dominates(match, dead) for dead in failed.get(position + 1, ())):
                continue
            if position + 1 > best[0]:
                best = (position + 1, match)
            stack.append(
                (position + 1, match, self.matches_above(match, states[position + 1]))
            )
        return best

    def matches_anywhere(self, observed: SignedBag) -> bool:
        """Whether ``V`` is ``observed`` at some cut, evaluating only
        until it is."""
        if any(value == observed for value in self.values.values()):
            return True
        for cut in itertools.product(*(range(last + 1) for last in self.final)):
            if cut not in self.values and self.value(cut) == observed:
                return True
        return False

    def chain(self, views: Sequence[SignedBag]) -> Tuple[bool, int, Cut]:
        """Whether a maximal chain of cuts has ``views`` as its ``V``-values
        (repeats dropped); if not, where the furthest chain stops."""
        zero = self.zero
        last = len(views) - 1
        best = (0, zero)
        if self.value(zero) != views[0]:
            return False, 0, zero
        stack = [(zero, 0)]
        seen = set(stack)
        while stack:
            cut, at = stack.pop()
            if (at, sum(cut)) > (best[0], sum(best[1])):
                best = (at, cut)
            if at == last and cut == self.final:
                return True, at, cut
            for successor in self.successors(cut):
                value = self.value(successor)
                if value == views[at]:
                    step = (successor, at)
                elif at < last and value == views[at + 1]:
                    step = (successor, at + 1)
                else:
                    continue
                if step not in seen:
                    seen.add(step)
                    stack.append(step)
        return False, best[0], best[1]


def _dominates(a: Cut, b: Cut) -> bool:
    return all(x >= y for x, y in zip(a, b))


def check_cuts(
    view: View,
    per_source_states: Mapping[str, List[State]],
    view_states: Sequence[SignedBag],
) -> ConsistencyReport:
    """Classify ``view_states`` against every level of the hierarchy, over
    the cuts of ``per_source_states`` (``name -> [state after i updates]``).

    Raises :class:`~repro.errors.SimulationError` for a run that recorded
    no view state (``record_trace=False``): it supports no verdict.
    """
    if not view_states:
        raise SimulationError(
            "the run recorded no view states (record_trace=False): nothing to classify"
        )
    lattice = _Lattice(view, per_source_states)
    # A recorder appends the same object while the view does not change
    # (views are copy-on-write); such a ``ws_j`` has the verdict of
    # ``ws_{j-1}`` at every level, so each object is matched once.
    changed = [
        (index, state)
        for index, state in enumerate(view_states)
        if index == 0 or state is not view_states[index - 1]
    ]

    witness: Optional[Witness] = None
    matched, cut = lattice.path([state for _, state in changed])
    consistent = matched == len(changed)
    weak = True
    if not consistent:
        witness = Witness(changed[matched][0], cut)
        for index, observed in changed[matched:]:
            if not lattice.matches_anywhere(observed):
                weak = False
                witness = Witness(index, cut)
                break

    convergent = lattice.value(lattice.final) == view_states[-1]
    complete = False
    if consistent and not convergent:
        witness = Witness(len(view_states) - 1, lattice.final)
    elif consistent:
        runs = [
            (index, state)
            for position, (index, state) in enumerate(changed)
            if position == 0 or state != changed[position - 1][1]
        ]
        complete, at, cut = lattice.chain([state for _, state in runs])
        if not complete:
            witness = Witness(runs[at][0], cut)
    return ConsistencyReport(convergent, weak, consistent, complete, witness)


def check_trace(view: View, trace: Trace) -> ConsistencyReport:
    """A single global sequence of source states: the one-coordinate cut."""
    return check_cuts(view, {"": trace.source_states}, trace.view_states)
