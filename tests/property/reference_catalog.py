"""The per-member catalog, kept as the oracle for class sharing.

Before a class of equal views became one algorithm, a
:class:`~repro.warehouse.catalog.WarehouseCatalog` drove every member's
own algorithm and let its planner hash the members' equal requests back
into one: every request was signed, and requests of one event with equal
``(destination, signature)`` shared a global id and a route listing the
members in catalog order.  :class:`ReferenceCatalog` is that catalog,
with each member's algorithm private (nothing is shared between
members), for the event protocol :class:`~repro.kernel.sync.SyncKernel`
drives.  The catalog under test must route the same bytes and leave
every member in the state the member's private algorithm reaches here.
"""

from __future__ import annotations

from repro.messaging.messages import QueryAnswer, QueryRequest
from repro.relational.bag import SignedBag
from repro.relational.signature import query_signature


class ReferencePlanner:
    """Every request signed; same-event duplicates share a global id."""

    def __init__(self, share):
        self.share = share
        self._next_query_id = 1
        self._routes = {}
        self.issued = 0
        self.saved = 0

    def plan(self, members):
        """``members``: ``(view name, destination, request)``, in catalog
        order then each member's order."""
        out = []
        groups = {}
        for view_name, destination, request in members:
            if self.share:
                key = (destination, query_signature(request.query))
                shared_id = groups.get(key)
                if shared_id is not None:
                    self._routes[shared_id] += ((view_name, request.query_id),)
                    self.saved += 1
                    continue
            global_id = self._next_query_id
            self._next_query_id += 1
            self._routes[global_id] = ((view_name, request.query_id),)
            if self.share:
                groups[key] = global_id
            self.issued += 1
            out.append((destination, QueryRequest(global_id, request.query)))
        return out

    def subscribers(self, global_id):
        return self._routes[global_id]

    def retire(self, global_id):
        del self._routes[global_id]

    def pending_ids(self):
        return sorted(self._routes)

    def state(self):
        return {
            "next_query_id": self._next_query_id,
            "routes": dict(self._routes),
            "issued": self.issued,
            "saved": self.saved,
        }


class ReferenceCatalog:
    """One private algorithm per member, fanned out to in catalog order."""

    name = "catalog"
    multi_source = False

    def __init__(self, algorithms, share_compensation=False):
        self.algorithms = dict(algorithms)
        self._planner = ReferencePlanner(share_compensation)

    def bind_owners(self, owners):
        for algorithm in self.algorithms.values():
            algorithm.bind_owners(owners)

    def _interested(self, relations):
        return [
            (view_name, algorithm)
            for view_name, algorithm in self.algorithms.items()
            if any(algorithm.view.involves(relation) for relation in relations)
        ]

    def on_update(self, source, notification):
        members = []
        for view_name, algorithm in self._interested([notification.update.relation]):
            for destination, request in algorithm.on_update(source, notification):
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    def on_update_batch(self, source, batch):
        relations = [n.update.relation for n in batch.notifications]
        members = []
        for view_name, algorithm in self._interested(relations):
            for destination, request in algorithm.on_update_batch(source, batch):
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    def on_answer(self, source, answer):
        members = []
        for view_name, local_id in self._planner.subscribers(answer.query_id):
            for destination, request in self.algorithms[view_name].on_answer(
                source, QueryAnswer(local_id, answer.answer)
            ):
                members.append((view_name, destination, request))
        self._planner.retire(answer.query_id)
        return self._planner.plan(members)

    def on_refresh(self):
        members = []
        for view_name, algorithm in self.algorithms.items():
            for destination, request in algorithm.on_refresh():
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    def view_state(self):
        union = SignedBag()
        for view_name, algorithm in self.algorithms.items():
            for row, count in algorithm.view_state().items():
                union.add((view_name,) + row, count)
        return union

    def view_changes(self):
        return None

    def evaluate_oracle(self, state):
        from repro.relational.engine import evaluate_view

        combined = SignedBag()
        for view_name, algorithm in self.algorithms.items():
            for row, count in evaluate_view(algorithm.view, state).items():
                combined.add((view_name,) + row, count)
        return combined

    @property
    def uqs(self):
        return {global_id: None for global_id in self._planner.pending_ids()}

    def pending_query_ids(self):
        return self._planner.pending_ids()

    def pending_state(self):
        return self._planner.state()

    def is_quiescent(self):
        return not self._planner.pending_ids() and all(
            algorithm.is_quiescent() for algorithm in self.algorithms.values()
        )

    def shared_query_stats(self):
        return self._planner.issued, self._planner.saved
