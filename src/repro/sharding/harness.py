"""Shard wiring for ``run_concurrent(shards=N)``: units, aliases, merged view.

The sharded topology keeps sources and clients byte-for-byte identical to
the unsharded runtime — they send on ``"{name}->wh"`` and receive on
``"wh->{name}"`` exactly as before.  Behind those names are:

- :func:`alias_shards`: each ``"{name}->wh"`` is a transport alias for
  :meth:`ShardPlan.route <repro.sharding.plan.ShardPlan.route>`, so an
  update, answer or refresh lands straight on the
  ``"{name}=>shard<i>"`` inbox of each shard it concerns, with no actor
  in between;
- one :class:`~repro.runtime.actors.WarehouseUnit` **per populated
  shard** (:func:`shard_units`), each running its own per-shard
  :class:`~repro.warehouse.catalog.WarehouseCatalog`, with its own WAL
  directory (``wal_dir/shard-<i>``), its own unanswered-query set, and
  its own crash/recovery lifecycle — driven by the same supervisor,
  restart and quiescence loop as the single unsharded warehouse;
- a :class:`ShardedWarehouse` facade merging the per-shard tagged views
  into one global view for clients, the trace recorder, and the
  consistency checkers.

Correctness model (see ``docs/SHARDING.md``): each member view lives on
exactly one shard and every message stream it consumes is FIFO per
``(origin, shard)`` channel, so per-view maintenance is *exactly* the
unsharded protocol — compensation, dedup, and recovery arguments carry
over shard-locally.  Global guarantees follow by composition: the merged
view is the tagged union of independently-correct member views.

Crashes are per-shard: ``crash`` applies only to ``crash_shard``, whose
supervisor rebuilds the actor from its own WAL while every other shard,
sources, and clients keep running.  The recovered incarnation re-issues
its pending queries under the ids they already had, so recovery is the
unsharded protocol: the first answer to an id is consumed, a later one
is dropped as a duplicate.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.durability.crash import CrashRun

# Re-export only: bench/layers.py patches this module-level name.
from repro.durability.recovery import recover  # noqa: F401
from repro.relational.bag import SignedBag
from repro.messaging.messages import Message, UpdateNotification
from repro.runtime.actors import ActorMetrics, WarehouseUnit, warehouse_inbox
from repro.runtime.transport import InMemoryTransport
from repro.sharding.plan import ShardPlan, shard_channel
from repro.warehouse.state import Changes


class ShardedWarehouse:
    """Merged facade over every shard's unit.

    Plays one unsharded :class:`~repro.runtime.actors.WarehouseUnit`'s
    part for clients and the trace recorder: ``view_state()`` is the
    tagged union of the per-shard catalogs (each already tags rows with
    the member view's name, so the union is exactly what one unsharded
    catalog over the same views would expose).
    """

    __slots__ = ("units",)

    def __init__(self, units: Sequence[WarehouseUnit]) -> None:
        #: Ascending by shard id (the order :func:`shard_units` builds).
        self.units = tuple(units)

    def view_state(self) -> SignedBag:
        """The merged view: a fresh bag, built on each call."""
        merged = SignedBag()
        for unit in self.units:
            merged.add_bag(unit.view_state())
        return merged

    def view_changes(self) -> Optional[Changes]:
        """Every unit's changes, in shard order; ``None`` if any unit's is."""
        parts = [unit.view_changes() for unit in self.units]
        if any(part is None for part in parts):
            return None
        return [pair for part in parts for pair in part]

    @property
    def algorithms(self) -> Dict[str, object]:
        """Every member view's algorithm, wherever it lives.

        Lets :func:`repro.serving.reader_for` take the facade for one
        tagged catalog: one reader covers every view.
        """
        members: Dict[str, object] = {}
        for unit in self.units:
            members.update(unit.algorithm.algorithms)
        return members


def shard_units(
    plan: ShardPlan,
    senders: Sequence[str],
    wal_dir: Optional[str],
    obs: Optional[object],
    crash_run: Optional[CrashRun],
    crash_shard: int,
) -> List[WarehouseUnit]:
    """One :class:`~repro.runtime.actors.WarehouseUnit` per populated shard.

    Inboxes are the per-(origin, shard) channels, each mapped back to
    the source or client it carries (WAL records and action-log labels
    stay comparable with an unsharded run); outgoing queries are numbered
    ``local id * plan.shards + shard``, which is all ``plan.route`` needs
    to bring the answer back.  Each shard recovers independently,
    so each gets its own WAL directory, and only ``crash_shard`` carries
    the crash run.
    """
    return [
        WarehouseUnit(
            plan.algorithms[shard],
            {shard_channel(name, shard): name for name in senders},
            shard=shard,
            title=f"shard {shard}",
            wal_dir=None if wal_dir is None else os.path.join(wal_dir, f"shard-{shard}"),
            obs=None if obs is None else obs.shard_view(shard, plan.shards),
            metrics=ActorMetrics(f"shard{shard}", "shard", shard=str(shard)),
            id_slice=(shard, plan.shards),
            crash_run=crash_run if shard == crash_shard else None,
        )
        for shard in plan.shard_ids
    ]


def alias_shards(
    transport: InMemoryTransport,
    plan: ShardPlan,
    units: Sequence[WarehouseUnit],
    senders: Sequence[str],
) -> None:
    """Alias each ``"{name}->wh"`` to ``plan.route`` for that source or client.

    With observability on, routing an update to a shard also marks it
    *executed* on that shard's staleness tracker (its staleness basis).
    """
    trackers = {
        channel: unit.obs
        for unit in units
        if unit.obs is not None
        for channel in unit.inboxes
    }

    def tracked(origin: str, message: Message) -> List[Tuple[str, Message]]:
        legs = plan.route(origin, message)
        if isinstance(message, UpdateNotification):
            for channel, _ in legs:
                trackers[channel].update_routed(message.serial)
        return legs

    route = tracked if trackers else plan.route
    for name in senders:
        transport.alias(warehouse_inbox(name), partial(route, name))


def shard_info(
    plan: ShardPlan, partitioner: object, units: Sequence[WarehouseUnit]
) -> Dict[str, object]:
    """``RuntimeResult.shard_info``: the plan plus each shard's final algorithm."""
    return {
        "shards": plan.shards,
        "partitioner": getattr(partitioner, "kind", partitioner),
        "assignment": dict(plan.assignment),
        "shard_ids": plan.shard_ids,
        "algorithms": {unit.shard: unit.algorithm for unit in units},
    }
