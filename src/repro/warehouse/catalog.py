"""A multi-view warehouse: one update stream, many maintained views.

Section 7: "in a warehouse consisting of multiple views where each view
is over data from a single source, ECA is simply applied to each view
separately."  :class:`WarehouseCatalog` is that sentence as a component:
it implements the same event protocol as a single algorithm, fans every
notification out to the per-view algorithms whose views read the updated
relation (each of which may be a different member of the family — ECA
here, ECA-Key there, a deferred view in the corner), and routes answers
back.  "Separately" describes the result, not the work: with
``share_compensation=True`` the members of a *class* — one algorithm
type, equal view definitions, equal constructor options and equal state,
under different names — are one algorithm, which the catalog drives once
per event and reports under every member's name (``docs/MULTIVIEW.md``
§2).  With sharing off every member is a class of one.

Between the members and the wire sits a
:class:`~repro.warehouse.planner.CompensationPlanner`: with
``share_compensation=False`` (the default) it is a byte-identical
re-expression of the historical 1:1 query-id multiplexer, while with
``share_compensation=True`` a class's request is planned with every
member as a subscriber, and requests of different classes with equal
canonical signatures inside one atomic event collapse into a single
:class:`~repro.messaging.messages.QueryRequest` whose one answer fans
back through every subscribing class — N overlapping views cost one
source round trip instead of N (``docs/MULTIVIEW.md``).

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
from repro.relational.views import View
from repro.warehouse.planner import CompensationPlanner
from repro.warehouse.state import Changes

if TYPE_CHECKING:  # avoid a package-level import cycle with repro.core
    from repro.core.protocol import Routed, WarehouseAlgorithm


class WarehouseCatalog:
    """Several views maintained side by side behind one protocol.

    Construction groups the members into classes and inverts
    ``view.reactive_relations()`` into the ``relation -> classes`` map
    that :meth:`on_update` delivers by.  With sharing on, a member joins
    the first earlier class whose algorithm is the same object, or has
    its type, view definition, ``durable_config()`` and state (view
    contents and ``pending_state()``, compared by equality), and its own
    algorithm object goes unused.  ``algorithms`` maps every member name
    to its class's algorithm, ``views`` to the member's own view.
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
        self._planner = CompensationPlanner(share=share_compensation)
        self.views: Dict[str, View] = {
            name: algorithm.view for name, algorithm in algorithms.items()
        }
        self.algorithms: "Dict[str, WarehouseAlgorithm]" = {}
        #: Each class's algorithm -> its members, in catalog order.
        self._members: "Dict[WarehouseAlgorithm, List[Tuple[int, str]]]" = {}
        leaders: "Dict[Tuple[object, ...], List[WarehouseAlgorithm]]" = {}
        for position, (view_name, algorithm) in enumerate(algorithms.items()):
            if share_compensation:
                same = leaders.setdefault((type(algorithm), algorithm.view.definition()), [])
                algorithm = next((a for a in same if _same_class(a, algorithm)), algorithm)
                if algorithm not in same:
                    same.append(algorithm)
            self._members.setdefault(algorithm, []).append((position, view_name))
            self.algorithms[view_name] = algorithm
        #: relation -> the classes whose views react to it, in class
        #: order: the only ones an update on the relation is delivered to.
        self._interested: "Dict[str, List[WarehouseAlgorithm]]" = {}
        for algorithm in self._members:
            for relation in algorithm.view.reactive_relations():
                self._interested.setdefault(relation, []).append(algorithm)

    @property
    def share_compensation(self) -> bool:
        """Whether classes span members and same-event duplicates are shared."""
        return self._planner.share

    def classes(self) -> "List[Tuple[WarehouseAlgorithm, Tuple[str, ...]]]":
        """Each class's algorithm and its members' names, in catalog order."""
        return [
            (algorithm, tuple(name for _, name in members))
            for algorithm, members in self._members.items()
        ]

    def split(self, assignment: Mapping[str, int]) -> "Dict[int, WarehouseCatalog]":
        """One catalog per part over the members ``assignment`` places
        there, in name order, with this catalog's sharing mode.  Every
        class lies in one part, so no algorithm is reachable from two."""
        parts: "Dict[int, Dict[str, WarehouseAlgorithm]]" = {}
        for name in sorted(assignment):
            parts.setdefault(assignment[name], {})[name] = self.algorithms[name]
        assert all(
            len({assignment[name] for name in members}) == 1
            for _, members in self.classes()
        ), "a class spans two parts"
        out: Dict[int, WarehouseCatalog] = {}
        for part, algorithms in parts.items():
            out[part] = WarehouseCatalog(algorithms, self.share_compensation)
            out[part].views = {name: self.views[name] for name in algorithms}
        return out

    # ------------------------------------------------------------------ #
    # Routed protocol events
    # ------------------------------------------------------------------ #

    def bind_owners(self, owners: Dict[str, str]) -> None:
        """Bind every class's algorithm; each refuses a disagreeing map."""
        for algorithm in self._members:
            algorithm.bind_owners(owners)

    def on_update(
        self, source: Optional[str], notification: UpdateNotification
    ) -> "Routed":
        return self._planner.plan(
            [
                (destination, request, self._members[algorithm])
                for algorithm in self._interested.get(notification.update.relation, ())
                for destination, request in algorithm.on_update(source, notification)
            ]
        )

    def on_update_batch(self, source: Optional[str], batch: "UpdateBatch") -> "Routed":
        """Fan a kernel-coalesced run out as one event, to every class
        that reacts to some relation in it.

        Each of them sees the same atomic ``UpdateBatch``, so views whose
        algorithm family answers a run with a single compensating query
        keep that behavior inside the catalog; the catalog itself only
        plans the resulting query ids, exactly as :meth:`on_update`.
        """
        relations = {n.update.relation for n in batch.notifications}
        return self._planner.plan(
            [
                (destination, request, members)
                for algorithm, members in self._members.items()
                if not relations.isdisjoint(algorithm.view.reactive_relations())
                for destination, request in algorithm.on_update_batch(source, batch)
            ]
        )

    def on_answer(self, source: Optional[str], answer: QueryAnswer) -> "Routed":
        """Fan one (possibly shared) answer to every subscribing class.

        All subscribers absorb the answer within this one atomic event —
        exactly the bag each would have received from its own private
        request, because sharing only ever merged signature-equal
        queries.  Follow-up requests are planned together, so even
        recovery-time or refresh-time duplicates collapse.  When the
        route reaches more than one class, every class but the first
        takes the answer on a copy before any class absorbs it: one that
        rejects it raises there, and the first rejects before changing
        anything, so a rejected answer changes nothing and leaves the
        route pending.
        """
        #: (class, local id) -> None, in route order.
        targets: "Dict[Tuple[WarehouseAlgorithm, int], None]" = {}
        for view_name, local_id in self._planner.subscribers(answer.query_id):
            targets[self.algorithms[view_name], local_id] = None
        if len(targets) > 1:
            first, *rest = targets
            if any(algorithm is first[0] for algorithm, _ in rest):
                rest.insert(0, first)
            copies: "Dict[WarehouseAlgorithm, WarehouseAlgorithm]" = {}
            for algorithm, local_id in rest:
                if algorithm not in copies:
                    copies[algorithm] = _copy(algorithm)
                copies[algorithm].on_answer(source, QueryAnswer(local_id, answer.answer))
        requests = [
            (destination, request, self._members[algorithm])
            for algorithm, local_id in targets
            for destination, request in algorithm.on_answer(
                source, QueryAnswer(local_id, answer.answer)
            )
        ]
        self._planner.retire(answer.query_id)
        return self._planner.plan(requests)

    def on_refresh(self) -> "Routed":
        return self._planner.plan(
            [
                (destination, request, members)
                for algorithm, members in self._members.items()
                for destination, request in algorithm.on_refresh()
            ]
        )

    # ------------------------------------------------------------------ #
    # State — the catalog poses as one big tagged view
    # ------------------------------------------------------------------ #

    def view_state(self) -> SignedBag:
        """The tagged union of the members' contents, built on each call.

        A fresh bag the catalog keeps no reference to; the recorder reads
        it only for ``ws_0`` and after a recovery, and every other
        ``ws_j`` from :meth:`view_changes`.
        """
        return self._tagged({a: a.view_state() for a in self._members})

    def view_changes(self) -> Optional[Changes]:
        """The classes' changes since the last call, tagged with each
        member's name as in :meth:`view_state`.

        ``None`` when some class has no journal yet; every class is
        drained (or has its journal opened) either way.
        """
        taken = {algorithm: algorithm.view_changes() for algorithm in self._members}
        if None in taken.values():
            return None
        return [
            ((view_name,) + row, delta)
            for view_name, algorithm in self.algorithms.items()
            for row, delta in taken[algorithm]  # type: ignore[union-attr]
        ]

    def evaluate_oracle(self, state: Mapping[str, SignedBag]) -> SignedBag:
        """Tagged union of every view evaluated over a raw source state."""
        from repro.relational.engine import evaluate_view

        return self._tagged({a: evaluate_view(a.view, state) for a in self._members})

    def _tagged(self, bags: "Mapping[WarehouseAlgorithm, SignedBag]") -> SignedBag:
        """Each class's bag, its rows tagged with every member's name."""
        union = SignedBag()
        for view_name, algorithm in self.algorithms.items():
            for row, count in bags[algorithm].items():
                union.add((view_name,) + row, count)
        return union

    def state_of(self, view_name: str) -> SignedBag:
        return self.algorithms[view_name].view_state()

    @property
    def uqs(self) -> Dict[int, object]:
        """Pending global query ids (driver quiescence check)."""
        return {global_id: None for global_id in self._planner.pending_ids()}

    def is_quiescent(self) -> bool:
        return self._planner.is_quiescent() and all(
            algorithm.is_quiescent() for algorithm in self._members
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

        local_pending: Dict[Tuple[object, int], Tuple[Optional[str], QueryRequest]] = {}
        for algorithm in self._members:
            for destination, request in algorithm.pending_requests():
                local_pending[algorithm, request.query_id] = (destination, request)
        out: "Routed" = []
        for global_id in self._planner.pending_ids():
            view_name, local_id = self._planner.subscribers(global_id)[0]
            destination, request = local_pending[self.algorithms[view_name], local_id]
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


def _copy(algorithm: "WarehouseAlgorithm") -> "WarehouseAlgorithm":
    """An independent twin of ``algorithm``: its codec round trip."""
    from repro.durability.codec import dumps_algorithm, loads_algorithm

    twin = loads_algorithm(dumps_algorithm(algorithm, validate=False))
    twin.bind_owners(algorithm.owners)
    return twin


def _same_class(leader: "WarehouseAlgorithm", algorithm: "WarehouseAlgorithm") -> bool:
    """Whether ``algorithm``, of ``leader``'s type and view definition,
    behaves as ``leader`` on every future event: the same object, or
    equal options and equal state."""
    return leader is algorithm or (
        leader.durable_config() == algorithm.durable_config()
        and leader.mv.view_state() == algorithm.mv.view_state()
        and leader.pending_state() == algorithm.pending_state()
    )
