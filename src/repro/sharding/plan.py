"""Shard planning: from one warehouse algorithm to N per-shard catalogs.

The unit of placement is the **member view**: a
:class:`~repro.warehouse.catalog.WarehouseCatalog` is split so each shard
runs its own smaller catalog over the views the partitioner assigned to
it, and a bare single-view algorithm is wrapped in a one-view catalog
first (so every shard presents the same tagged-union ``view_state``
shape and the merged global view is always ``(view_name, *row)`` rows).

Alongside the assignment the plan precomputes the **interest map** —
``relation -> shards whose views read it`` — which is everything needed
to fan an update notification out: a shard with no view over the updated
relation would process the notification as a no-op event, and skipping
it keeps per-shard work proportional to per-shard data, which is the
entire point of partitioning.

Routing (:meth:`ShardPlan.route`) is a function of the frozen plan and
the message, so no actor sits between a sender and the shards:
``run_concurrent(shards=N)`` applies it where the message is sent.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.core.protocol import WarehouseAlgorithm
from repro.errors import ProtocolError, SimulationError
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    RefreshRequest,
    UpdateNotification,
)
from repro.sharding.partition import Partitioner, ViewKey, make_partitioner
from repro.warehouse.catalog import WarehouseCatalog


def shard_channel(origin: str, shard: int) -> str:
    """Channel carrying ``origin``'s traffic to one shard.

    One channel per (origin, shard) pair keeps per-source FIFO (what
    every Section 5 correctness argument leans on) while letting shards
    drain the same source's stream independently.
    """
    return f"{origin}=>shard{shard}"


class ShardPlan:
    """One run's placement decisions, frozen before any actor starts.

    Attributes
    ----------
    shards:
        Total shard count requested (empty shards get no actor).
    assignment:
        ``view name -> shard id`` for every member view.
    algorithms:
        ``shard id -> per-shard catalog``, populated shards only.
    interest:
        ``relation -> ascending shard ids`` whose views involve it.
    """

    __slots__ = ("shards", "assignment", "algorithms", "interest")

    def __init__(
        self,
        shards: int,
        assignment: Dict[str, int],
        algorithms: Dict[int, WarehouseCatalog],
        interest: Dict[str, Tuple[int, ...]],
    ) -> None:
        self.shards = shards
        self.assignment = assignment
        self.algorithms = algorithms
        self.interest = interest

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Populated shards, ascending."""
        return tuple(sorted(self.algorithms))

    def route(self, origin: str, message: Message) -> List[Tuple[str, Message]]:
        """``origin``'s ``message`` as ``(shard channel, message)`` legs, ascending.

        An update notification goes to every shard whose views involve
        the relation (possibly none); a refresh to every populated shard.
        An answer carries the id its source saw, ``local id * shards +
        shard`` (:meth:`~repro.runtime.actors.WarehouseUnit.wire_id`):
        one ``divmod`` names the owning shard, and the leg carries the
        local id.  Queries are not routed — a shard sends them straight
        to the owning source.  Nothing is kept between calls, so a
        crashed shard needs nothing restored here: it re-issues under
        the same ids and drops the later of two answers as a duplicate.
        """
        if isinstance(message, UpdateNotification):
            shards = self.interest.get(message.update.relation, ())
        elif isinstance(message, QueryAnswer):
            local_id, shard = divmod(message.query_id, self.shards)
            if shard not in self.algorithms:
                # No unit numbers its queries from this slice, so no shard
                # asked: the id was damaged or invented on the way.
                raise ProtocolError(
                    f"answer to query id {message.query_id} from {origin!r} "
                    f"belongs to shard {shard}, which is not populated "
                    f"(populated: {list(self.shard_ids)})"
                )
            shards = (shard,)
            message = QueryAnswer(local_id, message.answer)
        elif isinstance(message, RefreshRequest):
            shards = self.shard_ids
        else:
            raise ProtocolError(f"cannot route {message!r} from {origin!r}")
        return [(shard_channel(origin, shard), message) for shard in shards]

    def __repr__(self) -> str:
        return (
            f"ShardPlan(shards={self.shards}, views={len(self.assignment)}, "
            f"populated={list(self.shard_ids)!r})"
        )


def _member_views(algorithm: object) -> Dict[str, WarehouseAlgorithm]:
    """The placeable members of ``algorithm`` (catalog members, or itself)."""
    if isinstance(algorithm, WarehouseCatalog):
        return dict(algorithm.algorithms)
    if isinstance(algorithm, WarehouseAlgorithm):
        if getattr(algorithm, "multi_source", False):
            raise SimulationError(
                f"algorithm {algorithm.name!r} maintains one view spanning "
                f"several sources; sharding places whole views, so a "
                f"spanning view cannot be partitioned — run it unsharded"
            )
        return {algorithm.view.name: algorithm}
    raise SimulationError(
        f"cannot shard {algorithm!r}: expected a WarehouseCatalog or a "
        f"single-view WarehouseAlgorithm"
    )


def plan_shards(
    algorithm: object,
    shards: int,
    partitioner: object,
    owners: Mapping[str, str],
) -> ShardPlan:
    """Split ``algorithm`` into per-shard catalogs under ``partitioner``.

    ``partitioner`` is a :class:`~repro.sharding.partition.Partitioner`
    or a spec name (``"hash"`` / ``"range"``) resolved against the view
    keys.  ``owners`` (relation -> source) bounds the interest map: every
    owned relation gets an entry, so "no shard cares" is an explicit
    empty tuple rather than a missing key.
    """
    if shards < 1:
        raise SimulationError(f"a sharded run needs >= 1 shard, got {shards}")
    members = _member_views(algorithm)
    keys: List[ViewKey] = [(name,) for name in sorted(members)]
    chosen = make_partitioner(partitioner, shards, keys)

    assignment: Dict[str, int] = {}
    per_shard: Dict[int, Dict[str, WarehouseAlgorithm]] = {}
    for name in sorted(members):
        shard = chosen.shard_of((name,))
        if not 0 <= shard < shards:
            raise SimulationError(
                f"partitioner placed view {name!r} on shard {shard}, "
                f"outside range({shards})"
            )
        assignment[name] = shard
        per_shard.setdefault(shard, {})[name] = members[name]

    # The planner is scoped per shard: each per-shard catalog inherits the
    # source catalog's sharing mode and dedupes only among its own views
    # (cross-shard sharing would need answer fan-out across actors).
    share = getattr(algorithm, "share_compensation", False)
    algorithms = {
        shard: WarehouseCatalog(views, share_compensation=share)
        for shard, views in per_shard.items()
    }
    # Invert view -> relations rather than probing every (relation, view)
    # pair with ``involves``: one pass over the members covers the whole
    # map in O(views x relations-per-view), by the rule each shard's
    # catalog applies among its own members.
    reactive: Dict[str, set] = {}
    for name, member in members.items():
        for relation in member.view.reactive_relations():
            reactive.setdefault(relation, set()).add(assignment[name])
    interest: Dict[str, Tuple[int, ...]] = {
        relation: tuple(sorted(reactive.get(relation, ())))
        for relation in owners
    }
    return ShardPlan(shards, assignment, algorithms, interest)
