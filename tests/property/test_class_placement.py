"""Property tests: a class lives on one shard.

``plan_shards`` places the *classes* of a catalog
(:meth:`~repro.warehouse.catalog.WarehouseCatalog.classes`), each on the
shard its partitioner gives the class's smallest member name.  Hypothesis
draws catalogs of 1-4 sources with 1-6 members each, some of them equal
(same algorithm, definition and state), and plans them with sharing on
and off, over 1-4 shards, under ``hash``, ``range`` and an explicit
table that keeps each class whole.  Three properties:

(a) *a class is never split* — every member of a class is assigned the
    shard of the class's smallest member name, and that shard's catalog
    drives the class's own algorithm object, which no other shard
    reaches;
(b) *sharing off moves nothing* — every class is one member, so the
    assignment is the per-member ``shard_of((name,))`` placement, with
    range boundaries over the member names;
(c) *the interest map names the right shards* — a relation's entry is
    exactly the shards holding a class whose view reacts to it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.eca import ECA
from repro.errors import SimulationError
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.sharding import ExplicitPartitioner, make_partitioner, plan_shards
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog

#: Member shapes over one source's ``r1(W, X)`` and ``r2(X, Y)``: two
#: join projections and a view of ``r1`` alone (reacts to ``r1`` only).
SHAPES = ("join-wy", "join-yw", "r1-only")


def source_schemas(prefix):
    return [
        RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
        RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
    ]


def member_view(name, shape, schemas):
    if shape == "join-wy":
        return View.natural_join(name, schemas, ["W", "Y"])
    if shape == "join-yw":
        return View.natural_join(name, schemas, ["Y", "W"])
    return View.natural_join(name, schemas[:1], ["W", "X"])


catalog_specs = st.lists(
    st.lists(st.sampled_from(SHAPES), min_size=1, max_size=6),
    min_size=1,
    max_size=4,
)


def build(spec, names, share):
    """One source per entry of ``spec``, one member per shape, members
    named from ``names`` in order; ``owners`` maps relation -> source."""
    algorithms = {}
    owners = {}
    names = iter(names)
    for index, shapes in enumerate(spec):
        prefix = f"s{index}"
        schemas = source_schemas(prefix)
        state = MemorySource(
            schemas, {f"{prefix}r1": [(1, 2), (2, 3)], f"{prefix}r2": [(2, 5)]}
        ).snapshot()
        owners.update((schema.name, prefix) for schema in schemas)
        for shape in shapes:
            view = member_view(next(names), shape, schemas)
            algorithms[view.name] = ECA(view, evaluate_view(view, state))
    return WarehouseCatalog(algorithms, share_compensation=share), owners


@settings(max_examples=80, deadline=None)
@given(
    spec=catalog_specs,
    share=st.booleans(),
    shards=st.integers(1, 4),
    kind=st.sampled_from(["hash", "range", "explicit"]),
    data=st.data(),
)
def test_a_class_lives_on_one_shard(spec, share, shards, kind, data):
    count = sum(len(shapes) for shapes in spec)
    numbers = data.draw(
        st.lists(st.integers(0, 99), min_size=count, max_size=count, unique=True)
    )
    catalog, owners = build(spec, [f"m{number}" for number in numbers], share)
    classes = catalog.classes()
    if not share:
        assert len(classes) == count
    partitioner = kind
    if kind == "explicit":
        table = {}
        for _, members in classes:
            shard = data.draw(st.integers(0, shards - 1))
            table.update(((name,), shard) for name in members)
        partitioner = ExplicitPartitioner(table, shards=shards)
    if kind == "range" and 1 < shards and len(classes) < shards:
        with pytest.raises(SimulationError, match=r"class\(es\)"):
            plan_shards(catalog, shards, partitioner, owners)
        return
    plan = plan_shards(catalog, shards, partitioner, owners)

    # (a) every class whole on the shard of its smallest member's key,
    # driven there by its own algorithm.
    assert list(plan.assignment) == sorted(catalog.views)
    leaders = [(min(members),) for _, members in classes]
    class_wise = make_partitioner(partitioner, shards, leaders)
    home = {}
    for algorithm, members in classes:
        (shard,) = {plan.assignment[name] for name in members}
        assert shard == class_wise.shard_of((min(members),))
        home[id(algorithm)] = shard
        assert all(
            plan.algorithms[shard].algorithms[name] is algorithm for name in members
        )
    for shard, part in plan.algorithms.items():
        assert {home[id(algorithm)] for algorithm, _ in part.classes()} == {shard}

    # (b) sharing off: the per-member placement, boundaries over names.
    if not share:
        names = sorted(catalog.views)
        member_wise = make_partitioner(partitioner, shards, [(n,) for n in names])
        assert plan.assignment == {n: member_wise.shard_of((n,)) for n in names}

    # (c) interest: the shards of the classes that react to the relation.
    for relation in owners:
        expected = {
            home[id(algorithm)]
            for algorithm, _ in classes
            if relation in algorithm.view.reactive_relations()
        }
        assert plan.interest[relation] == tuple(sorted(expected)), relation
