"""``repro.sharding`` — the partitioned warehouse.

One warehouse catalog, split across N shard actors that sources and
clients reach directly:

- :mod:`repro.sharding.partition` — deterministic placement of view keys
  (hash / range / explicit), statically checked for purity by RPR007;
- :mod:`repro.sharding.plan` — the frozen per-run placement: per-shard
  catalogs, the relation -> interested-shards map, and
  :meth:`ShardPlan.route`, the function sending an update to the
  interested shards and each answer to the shard whose id slice it is in;
- :mod:`repro.sharding.harness` — how a shard is wired into the one
  harness: ``run_concurrent(..., shards=N)`` runs one warehouse unit per
  shard (:func:`~repro.sharding.harness.shard_units`) with the senders'
  channels aliased to that function, read through the merged
  :class:`ShardedWarehouse`.
"""

from repro.sharding.harness import ShardedWarehouse
from repro.sharding.partition import (
    ExplicitPartitioner,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ViewKey,
    make_partitioner,
)
from repro.sharding.plan import ShardPlan, plan_shards, shard_channel

__all__ = [
    "ExplicitPartitioner",
    "HashPartitioner",
    "Partitioner",
    "RangePartitioner",
    "ShardPlan",
    "ShardedWarehouse",
    "ViewKey",
    "make_partitioner",
    "plan_shards",
    "shard_channel",
]
