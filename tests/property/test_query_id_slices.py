"""Property tests: shards own disjoint slices of one query-id space.

A shard numbers the queries it sends ``local id * shards + shard``
(:meth:`repro.runtime.actors.WarehouseUnit.wire_id`) and the plan's route
finds an answer's owner with ``divmod(id, shards)``.  That pair has to be a
bijection between ``(shard, local id)`` and the ids sources see, for every
shard count — it is all that stands between an answer and the wrong view.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.actors import WarehouseUnit

local_ids = st.integers(1, 10**9)


@st.composite
def placed_ids(draw):
    """``(shards, [(shard, local id), ...])`` with every shard in range."""
    shards = draw(st.integers(1, 64))
    pairs = st.tuples(st.integers(0, shards - 1), local_ids)
    return shards, draw(st.lists(pairs, min_size=1, max_size=20, unique=True))


def unit(shard, shards):
    return WarehouseUnit(None, {}, shard=shard, id_slice=(shard, shards))


@settings(max_examples=200, deadline=None)
@given(placed_ids())
def test_wire_ids_round_trip_and_never_collide(placed):
    shards, pairs = placed
    wire = [unit(shard, shards).wire_id(local) for shard, local in pairs]
    assert [divmod(query_id, shards) for query_id in wire] == [
        (local, shard) for shard, local in pairs
    ]
    assert len(set(wire)) == len(pairs)


@settings(max_examples=50, deadline=None)
@given(local_ids)
def test_the_unsharded_unit_keeps_its_own_ids(local):
    assert WarehouseUnit(None, {}).wire_id(local) == local
