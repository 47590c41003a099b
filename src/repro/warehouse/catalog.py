"""A multi-view warehouse: one update stream, many maintained views.

Section 7: "in a warehouse consisting of multiple views where each view
is over data from a single source, ECA is simply applied to each view
separately."  :class:`WarehouseCatalog` is that sentence as a component:
it implements the same event protocol as a single algorithm, fans every
notification out to the per-view algorithms whose views read the updated
relation (each of which may be a different member of the family — ECA
here, ECA-Key there, a deferred view in the corner), and routes answers
back.  "Separately" describes the result, not the work: the ECA members
of a *class* — one algorithm type, one view definition under different
names — build each compensating query once between them
(:func:`repro.core.eca.share_memos`; ``docs/MULTIVIEW.md`` §2).

Between the members and the wire sits a
:class:`~repro.warehouse.planner.CompensationPlanner`: with
``share_compensation=False`` (the default) it is a byte-identical
re-expression of the historical 1:1 query-id multiplexer, while with
``share_compensation=True`` member queries with equal canonical
signatures inside one atomic event collapse into a single
:class:`~repro.messaging.messages.QueryRequest` whose one answer fans
back through every subscribing view's own compensation — N overlapping
views cost one source round trip instead of N (``docs/MULTIVIEW.md``).

For trace-based checking, the catalog is itself a "view" whose rows are
tagged with their view name: ``catalog.view_state()`` returns
``(view_name, *row)`` tuples, and :meth:`evaluate_oracle` computes the
same tagged union from a raw source state — so ``check_trace(catalog,
trace)`` and ``staleness_profile(catalog, trace)`` work unchanged.

**What joint checking reveals** (and the tests pin down): each view is
individually strongly consistent, but the *combined* warehouse state is
in general only **convergent** — views advance through source states at
different rates (a local key-delete lands instantly while a neighbor's
query is still in flight), so the tagged union can mix ``V1[ss_2]`` with
``V2[ss_0]``, a state no single source moment produced.  This is the
*mutual consistency* problem the authors formalized in their Strobe
follow-up; Section 7's "ECA is simply applied to each view separately"
buys per-view consistency only.  Use
:func:`repro.simulation.trace.project_view` to check each view on its own
timeline; the catalog itself keeps no history, and no copy of its
members' rows: :meth:`WarehouseCatalog.view_state` tags them on each call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ProtocolError
from repro.messaging.messages import (
    QueryAnswer,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.warehouse.planner import CompensationPlanner, MemberRequest
from repro.warehouse.state import Changes

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.core
    from repro.core.protocol import Routed, WarehouseAlgorithm


class WarehouseCatalog:
    """Several views maintained side by side behind one protocol.

    Construction scopes every class of structurally equal ECA members
    to this catalog (one :class:`~repro.core.compensation.CompensationMemo`
    per class; a catalog built later over the same members re-scopes
    them, which is how per-shard catalogs come to share nothing) and
    inverts ``view.reactive_relations()`` into the ``relation ->
    members`` map that :meth:`on_update` and :meth:`on_update_batch`
    deliver by.  Only the view definitions are hashed here.
    """

    name = "catalog"
    multi_source = False
    codec_tag = "algo.catalog"

    def __init__(
        self,
        algorithms: "Mapping[str, WarehouseAlgorithm]",
        share_compensation: bool = False,
    ) -> None:
        if not algorithms:
            raise ProtocolError("a warehouse catalog needs at least one view")
        from repro.core.eca import share_memos

        self.algorithms: "Dict[str, WarehouseAlgorithm]" = dict(algorithms)
        self.owners: Dict[str, str] = {}
        self._planner = CompensationPlanner(share=share_compensation)
        share_memos(self.algorithms.values())
        #: relation -> the members whose views react to it, each with its
        #: catalog position, in catalog order: the only members an update
        #: on the relation is delivered to.
        self._interested: "Dict[str, List[Tuple[int, str, WarehouseAlgorithm]]]" = {}
        for position, (view_name, algorithm) in enumerate(self.algorithms.items()):
            for relation in algorithm.view.reactive_relations():
                self._interested.setdefault(relation, []).append(
                    (position, view_name, algorithm)
                )

    @property
    def share_compensation(self) -> bool:
        """Whether same-event duplicate compensating queries are shared."""
        return self._planner.share

    # ------------------------------------------------------------------ #
    # Routed protocol events
    # ------------------------------------------------------------------ #

    def bind_owners(self, owners: Dict[str, str]) -> None:
        if not self.owners:
            self.owners = dict(owners)
        for algorithm in self.algorithms.values():
            algorithm.bind_owners(owners)

    def on_update(
        self, source: Optional[str], notification: UpdateNotification
    ) -> "Routed":
        members: List[MemberRequest] = []
        for _, view_name, algorithm in self._interested.get(
            notification.update.relation, ()
        ):
            for destination, request in algorithm.on_update(source, notification):
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    def on_update_batch(self, source: Optional[str], batch: "UpdateBatch") -> "Routed":
        """Fan a kernel-coalesced run out as one event, to every member
        that reacts to some relation in it.

        Each of them sees the same atomic ``UpdateBatch``, so views whose
        algorithm family answers a run with a single compensating query
        keep that behavior inside the catalog; the catalog itself only
        plans the resulting query ids, exactly as :meth:`on_update`.
        """
        interested = {
            position: (view_name, algorithm)
            for notification in batch.notifications
            for position, view_name, algorithm in self._interested.get(
                notification.update.relation, ()
            )
        }
        members: List[MemberRequest] = []
        for position in sorted(interested):
            view_name, algorithm = interested[position]
            for destination, request in algorithm.on_update_batch(source, batch):
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    def on_answer(self, source: Optional[str], answer: QueryAnswer) -> "Routed":
        """Fan one (possibly shared) answer to every subscribing view.

        All subscribers absorb the answer within this one atomic event —
        exactly the bag each would have received from its own private
        request, because sharing only ever merged signature-equal
        queries.  Follow-up requests the subscribers emit are planned
        together, so even recovery-time or refresh-time duplicates
        collapse.  The route is retired once every subscriber took the
        answer: one that rejects it leaves the route pending.
        """
        subscribers = self._planner.subscribers(answer.query_id)
        members: List[MemberRequest] = []
        for view_name, local_id in subscribers:
            for destination, request in self.algorithms[view_name].on_answer(
                source, QueryAnswer(local_id, answer.answer)
            ):
                members.append((view_name, destination, request))
        self._planner.retire(answer.query_id)
        return self._planner.plan(members)

    def on_refresh(self) -> "Routed":
        members: List[MemberRequest] = []
        for view_name, algorithm in self.algorithms.items():
            for destination, request in algorithm.on_refresh():
                members.append((view_name, destination, request))
        return self._planner.plan(members)

    # ------------------------------------------------------------------ #
    # State — the catalog poses as one big tagged view
    # ------------------------------------------------------------------ #

    def view_state(self) -> SignedBag:
        """The tagged union of the members' contents, built on each call.

        A fresh bag the catalog keeps no reference to; the recorder reads
        it only for ``ws_0`` and after a recovery, and every other
        ``ws_j`` from :meth:`view_changes`.
        """
        union = SignedBag()
        for view_name, algorithm in self.algorithms.items():
            for row, count in algorithm.view_state().items():
                union.add((view_name,) + row, count)
        return union

    def view_changes(self) -> Optional[Changes]:
        """The members' changes since the last call, tagged as in :meth:`view_state`.

        ``None`` when some member has no journal yet; every member is
        drained (or has its journal opened) either way.
        """
        tagged: Changes = []
        whole = False
        for view_name, algorithm in self.algorithms.items():
            changes = algorithm.view_changes()
            if changes is None:
                whole = True
            elif not whole:
                tagged.extend(((view_name,) + row, delta) for row, delta in changes)
        return None if whole else tagged

    def evaluate_oracle(self, state: Mapping[str, SignedBag]) -> SignedBag:
        """Tagged union of every view evaluated over a raw source state."""
        from repro.relational.engine import evaluate_view

        combined = SignedBag()
        for view_name, algorithm in self.algorithms.items():
            for row, count in evaluate_view(algorithm.view, state).items():
                combined.add((view_name,) + row, count)
        return combined

    def state_of(self, view_name: str) -> SignedBag:
        return self.algorithms[view_name].view_state()

    @property
    def uqs(self) -> Dict[int, object]:
        """Pending global query ids (driver quiescence check)."""
        return {global_id: None for global_id in self._planner.pending_ids()}

    def is_quiescent(self) -> bool:
        return self._planner.is_quiescent() and all(
            algorithm.is_quiescent() for algorithm in self.algorithms.values()
        )

    # ------------------------------------------------------------------ #
    # Durability hooks
    # ------------------------------------------------------------------ #

    def pending_state(self) -> Dict[str, Any]:
        """Catalog-level bookkeeping only; member algorithms persist
        their own state through the durability codec."""
        return self._planner.state()

    def restore_pending_state(self, state: Dict[str, Any]) -> None:
        self._planner.restore(state)

    def pending_requests(self) -> "Routed":
        """Re-issue one request per pending global id after a crash.

        A shared query is re-sent **once**: the first subscriber's local
        pending query stands in for the group (signature equality makes
        every subscriber's expression interchangeable), and the recovered
        answer fans back through the restored route table exactly as the
        lost answer would have.
        """
        from repro.messaging.messages import QueryRequest

        local_pending: Dict[Tuple[str, int], Tuple[Optional[str], QueryRequest]] = {}
        for view_name, algorithm in self.algorithms.items():
            for destination, request in algorithm.pending_requests():
                local_pending[(view_name, request.query_id)] = (
                    destination,
                    request,
                )
        out: "Routed" = []
        for global_id in self._planner.pending_ids():
            view_name, local_id = self._planner.subscribers(global_id)[0]
            destination, request = local_pending[(view_name, local_id)]
            out.append((destination, QueryRequest(global_id, request.query)))
        return out

    def pending_query_ids(self) -> List[int]:
        return self._planner.pending_ids()

    def gauges(self) -> Dict[str, int]:
        """Per-view UQS sizes plus the global route count (obs layer)."""
        out = {"uqs": self._planner.pending_count()}
        for name, algorithm in self.algorithms.items():
            out[f"uqs:{name}"] = len(algorithm.uqs)
        return out

    def shared_query_stats(self) -> Tuple[int, int]:
        """``(issued, saved)`` — requests shipped vs. round trips avoided.

        Exported by the observability layer as the
        ``repro_shared_queries_issued`` / ``repro_shared_queries_saved``
        series; both counters are cumulative over the catalog's life.
        """
        return self._planner.issued, self._planner.saved

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{algo.name}" for name, algo in self.algorithms.items()
        )
        mode = ", shared" if self.share_compensation else ""
        return f"WarehouseCatalog({parts}{mode})"
