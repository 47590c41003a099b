"""Cut consistency — the right correctness notion across sources.

With several autonomous sources there is no single global state sequence:
each source serializes its own updates, and the warehouse observes some
interleaving.  The natural analogue of Section 3.1's consistency is
*cut consistency*: every warehouse state equals the view evaluated on a
**consistent cut** — one prefix of each source's history — and successive
warehouse states correspond to monotonically advancing cuts.

This is exactly the guarantee stored copies retain across sources (each
notification advances one coordinate of the cut), while naive fragmenting
maintenance satisfies nothing at all.  Single-source consistency is the
special case with one coordinate.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.views import View

Cut = Tuple[int, ...]
State = Dict[str, SignedBag]


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
    from repro.consistency.checker import ConsistencyReport

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
