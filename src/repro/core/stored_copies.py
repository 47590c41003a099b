"""Section 1.2 — the Stored-Copies strategy (SC).

The warehouse keeps an up-to-date copy of every base relation involved in
the view.  An update notification is applied to the local copies and the
incremental query ``V<U>`` is evaluated *locally* — no query is ever sent
to the source, so no anomaly can arise.

SC is strongly consistent and complete (the view steps through every
source state), at the storage cost the paper calls out: full copies of all
base relations, kept current on every update.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import UpdateError
from repro.messaging.messages import QueryRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_query
from repro.relational.views import View


class StoredCopies(WarehouseAlgorithm):
    """View maintenance against warehouse-resident base relation copies.

    Parameters
    ----------
    view:
        The maintained view.
    initial:
        Initial view contents.
    initial_copies:
        Initial contents of the base relation copies; must match the
        source's initial state for the maintained view to be correct.
    """

    name = "stored-copies"

    def __init__(
        self,
        view: View,
        initial: Optional[SignedBag] = None,
        initial_copies: Optional[Dict[str, SignedBag]] = None,
    ) -> None:
        super().__init__(view, initial)
        self.copies: Dict[str, SignedBag] = {
            name: SignedBag() for name in view.relation_names
        }
        if initial_copies:
            for relation, bag in initial_copies.items():
                if relation in self.copies:
                    self.copies[relation] = bag.copy()

    def handle_update(self, notification: UpdateNotification) -> List[QueryRequest]:
        if not self.relevant(notification):
            return []
        update = notification.update
        copy = self.copies[update.relation]
        if update.is_insert:
            copy.add(update.values, 1)
        else:
            if copy.multiplicity(update.values) <= 0:
                raise UpdateError(
                    f"stored copy of {update.relation!r} has no tuple "
                    f"{update.values!r} to delete — copies out of sync"
                )
            copy.add(update.values, -1)
        # Evaluate V<U> against the (already updated) local copies.  The
        # updated relation's operand is bound to the update's signed tuple,
        # so the evaluation never consults the modified relation itself.
        delta_query = self.view.substitute(update.relation, update.signed_tuple())
        self.mv.apply_delta(evaluate_query(delta_query, self.copies))
        return []

    def storage_cost(self) -> int:
        """Total tuples held in base-relation copies (SC's storage price)."""
        return sum(bag.total_count() for bag in self.copies.values())

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        state = super().pending_state()
        state["copies"] = {name: bag.copy() for name, bag in self.copies.items()}
        return state

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        super().restore_pending_state(state)
        self.copies = {name: bag.copy() for name, bag in state["copies"].items()}
