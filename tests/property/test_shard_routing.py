"""Property tests: shard routing is a pure function of the plan.

:meth:`repro.sharding.plan.ShardPlan.route` is everything that stands
between a sender and the shards: a notification goes to exactly the
shards whose views read the relation, an answer to the one shard whose
id slice it is in (the inverse of
:meth:`repro.runtime.actors.WarehouseUnit.wire_id`), a refresh to every
populated shard — in ascending shard order, for every placement, and
with nothing remembered between calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eca import ECA
from repro.errors import ProtocolError
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime.actors import WarehouseUnit
from repro.sharding import ExplicitPartitioner, plan_shards, shard_channel
from repro.source.updates import insert
from repro.warehouse.catalog import WarehouseCatalog

RELATIONS = [RelationSchema(f"r{i}", ("A", "B")) for i in range(4)]
OWNERS = {schema.name: "s" for schema in RELATIONS}


@st.composite
def plans(draw):
    """``(plan, placement)``: 1-8 shards, each view placed explicitly.

    Views are fewer than shards often enough that some shards stay
    empty, and several views may read one relation (a fan-in), so a
    relation's interest set ranges from nobody to several shards.
    """
    shards = draw(st.integers(1, 8))
    views = draw(
        st.lists(
            st.tuples(st.sampled_from(RELATIONS), st.integers(0, shards - 1)),
            min_size=1,
            max_size=6,
        )
    )
    placement = {f"V{i}": (schema, shard) for i, (schema, shard) in enumerate(views)}
    catalog = WarehouseCatalog(
        {
            name: ECA(View(name, [schema], ["A", "B"]))
            for name, (schema, _) in placement.items()
        }
    )
    partitioner = ExplicitPartitioner(
        {(name,): shard for name, (_, shard) in placement.items()}, shards=shards
    )
    return plan_shards(catalog, shards, partitioner, OWNERS), placement


def frozen(plan):
    """Everything the plan holds that a call could have changed."""
    return (
        plan.shards,
        dict(plan.assignment),
        sorted(plan.algorithms),
        dict(plan.interest),
    )


@settings(max_examples=150, deadline=None)
@given(plans(), st.sampled_from(RELATIONS), st.integers(1, 10**6))
def test_a_notification_goes_to_exactly_the_interested_shards(drawn, schema, serial):
    plan, placement = drawn
    notification = UpdateNotification(insert(schema.name, (serial, 0)), serial)
    interested = sorted(
        {shard for reads, shard in placement.values() if reads is schema}
    )
    assert plan.interest[schema.name] == tuple(interested)
    assert plan.route("s", notification) == [
        (shard_channel("s", shard), notification) for shard in interested
    ]


@settings(max_examples=150, deadline=None)
@given(plans(), st.integers(1, 10**9), st.data())
def test_an_answer_goes_to_the_shard_whose_slice_its_id_is_in(drawn, local, data):
    plan, _ = drawn
    shard = data.draw(st.integers(0, plan.shards - 1))
    unit = WarehouseUnit(None, {}, shard=shard, id_slice=(shard, plan.shards))
    answer = QueryAnswer(unit.wire_id(local), SignedBag())
    if shard in plan.shard_ids:
        assert plan.route("s", answer) == [
            (shard_channel("s", shard), QueryAnswer(local, answer.answer))
        ]
    else:
        with pytest.raises(ProtocolError, match=f"shard {shard}, which is not"):
            plan.route("s", answer)


@settings(max_examples=100, deadline=None)
@given(plans(), st.integers(1, 100))
def test_a_refresh_goes_to_every_populated_shard(drawn, serial):
    plan, placement = drawn
    populated = sorted({shard for _, shard in placement.values()})
    assert plan.shard_ids == tuple(populated)
    refresh = RefreshRequest(serial)
    assert plan.route("client-0", refresh) == [
        (shard_channel("client-0", shard), refresh) for shard in populated
    ]


@settings(max_examples=100, deadline=None)
@given(plans(), st.integers(1, 10**6))
def test_routing_keeps_nothing(drawn, serial):
    plan, _ = drawn
    before = frozen(plan)
    messages = [
        UpdateNotification(insert("r0", (serial, 0)), serial),
        QueryAnswer(serial * plan.shards + plan.shard_ids[0], SignedBag()),
        RefreshRequest(serial),
    ]
    for message in messages:
        assert plan.route("s", message) == plan.route("s", message)
    # A query is never routed: shards send those to the sources themselves.
    with pytest.raises(ProtocolError, match="cannot route"):
        plan.route("s", QueryRequest(serial, Query()))
    assert frozen(plan) == before
