"""Unit tests for ``repro.sharding`` placement: partitioners and plans."""

import zlib

import pytest

from repro.core.eca import ECA
from repro.errors import SimulationError
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.sharding import (
    ExplicitPartitioner,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    make_partitioner,
    plan_shards,
)
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog

KEYS = [(f"V{i}",) for i in range(8)]


def build_catalog(n_views):
    """``n_views`` independent two-relation join views, one source each."""
    sources = {}
    algorithms = {}
    for index in range(n_views):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X")),
            RelationSchema(f"{prefix}r2", ("X", "Y")),
        ]
        source = MemorySource(
            schemas,
            {f"{prefix}r1": [(1, 2)], f"{prefix}r2": [(2, 5)]},
        )
        sources[prefix] = source
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        algorithms[f"V{index}"] = ECA(
            view, evaluate_view(view, source.snapshot())
        )
    owners = {
        relation: name
        for name, source in sources.items()
        for relation in source.snapshot()
    }
    return WarehouseCatalog(algorithms), owners


class TestHashPartitioner:
    def test_total_and_in_range(self):
        p = HashPartitioner(3)
        for key in KEYS:
            assert 0 <= p.shard_of(key) < 3

    def test_matches_crc32_of_canonical_encoding(self):
        p = HashPartitioner(5)
        assert p.shard_of(("V1",)) == zlib.crc32(b"('V1',)") % 5

    def test_stable_across_instances(self):
        assert [HashPartitioner(4).shard_of(k) for k in KEYS] == [
            HashPartitioner(4).shard_of(k) for k in KEYS
        ]

    def test_rejects_zero_shards(self):
        with pytest.raises(SimulationError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_boundaries_split_the_key_space(self):
        p = RangePartitioner([("V3",), ("V6",)])
        assert p.shards == 3
        assert p.shard_of(("V0",)) == 0
        assert p.shard_of(("V3",)) == 1  # boundary key opens its shard
        assert p.shard_of(("V5",)) == 1
        assert p.shard_of(("V6",)) == 2
        assert p.shard_of(("V9",)) == 2

    def test_empty_boundaries_is_one_shard(self):
        p = RangePartitioner(())
        assert p.shards == 1
        assert all(p.shard_of(k) == 0 for k in KEYS)

    def test_non_increasing_boundaries_rejected(self):
        with pytest.raises(SimulationError):
            RangePartitioner([("V6",), ("V3",)])
        with pytest.raises(SimulationError):
            RangePartitioner([("V3",), ("V3",)])


class TestExplicitPartitioner:
    def test_literal_table_and_inferred_shard_count(self):
        p = ExplicitPartitioner({("V0",): 0, ("V1",): 2})
        assert p.shards == 3
        assert p.shard_of(("V1",)) == 2

    def test_unknown_key_is_an_error_not_a_default(self):
        p = ExplicitPartitioner({("V0",): 0})
        with pytest.raises(SimulationError):
            p.shard_of(("stray",))

    def test_assignment_outside_declared_shards_rejected(self):
        with pytest.raises(SimulationError):
            ExplicitPartitioner({("V0",): 5}, shards=2)

    def test_empty_table_rejected(self):
        with pytest.raises(SimulationError):
            ExplicitPartitioner({})


class TestMakePartitioner:
    def test_instance_passes_through_after_count_check(self):
        p = HashPartitioner(2)
        assert make_partitioner(p, 2) is p
        with pytest.raises(SimulationError):
            make_partitioner(p, 3)

    def test_hash_spec(self):
        p = make_partitioner("hash", 4)
        assert isinstance(p, HashPartitioner) and p.shards == 4

    def test_range_spec_derives_boundaries_from_keys(self):
        p = make_partitioner("range", 2, KEYS)
        assert isinstance(p, RangePartitioner)
        # Near-equal split: half the sorted key universe per shard.
        assert sorted(p.shard_of(k) for k in KEYS) == [0] * 4 + [1] * 4

    def test_range_spec_single_shard_needs_no_keys(self):
        assert make_partitioner("range", 1).shard_of(("V0",)) == 0

    def test_range_spec_needs_one_view_per_shard(self):
        with pytest.raises(SimulationError):
            make_partitioner("range", 4, KEYS[:3])

    def test_unknown_spec_rejected(self):
        with pytest.raises(SimulationError):
            make_partitioner("round-robin", 2)


class TestPlanShards:
    def test_assignment_covers_every_member_view(self):
        catalog, owners = build_catalog(4)
        plan = plan_shards(catalog, 2, "hash", owners)
        assert sorted(plan.assignment) == [f"V{i}" for i in range(4)]
        assert set(plan.assignment.values()) <= {0, 1}
        # Per-shard catalogs reuse the original member objects.
        for name, shard in plan.assignment.items():
            assert plan.algorithms[shard].algorithms[name] is catalog.algorithms[name]

    def test_interest_maps_each_relation_to_its_owning_shard(self):
        catalog, owners = build_catalog(4)
        plan = plan_shards(catalog, 2, "hash", owners)
        assert sorted(plan.interest) == sorted(owners)
        for index in range(4):
            shard = plan.assignment[f"V{index}"]
            assert plan.interest[f"s{index}r1"] == (shard,)
            assert plan.interest[f"s{index}r2"] == (shard,)

    def test_empty_shards_get_no_catalog(self):
        catalog, owners = build_catalog(2)
        plan = plan_shards(catalog, 8, ExplicitPartitioner(
            {("V0",): 0, ("V1",): 7}, shards=8
        ), owners)
        assert plan.shard_ids == (0, 7)

    def test_bare_single_view_algorithm_is_wrapped(self):
        catalog, owners = build_catalog(1)
        member = catalog.algorithms["V0"]
        plan = plan_shards(member, 1, "hash", owners)
        assert plan.shard_ids == (0,)
        assert plan.algorithms[0].algorithms == {"V0": member}

    def test_partitioner_out_of_range_is_caught(self):
        catalog, owners = build_catalog(2)

        class Escapee(Partitioner):
            kind = "escapee"

            def shard_of(self, key):
                return self.shards  # one past the end

        with pytest.raises(SimulationError):
            plan_shards(catalog, 2, Escapee(2), owners)

    def test_spanning_algorithm_cannot_be_sharded(self):
        from repro.core.registry import build_algorithm

        schemas = [
            RelationSchema("ar", ("A", "B"), key=("A",)),
            RelationSchema("br", ("B", "C"), key=("C",)),
        ]
        sources = {
            "a": MemorySource([schemas[0]], {"ar": [(1, 2)]}),
            "b": MemorySource([schemas[1]], {"br": [(2, 3)]}),
        }
        view = View.natural_join("S", schemas, ["A", "C"])
        spanning = build_algorithm("multi-stored-copies", view, sources)
        with pytest.raises(SimulationError):
            plan_shards(spanning, 2, "hash", {"ar": "a", "br": "b"})

    def test_non_algorithm_rejected(self):
        with pytest.raises(SimulationError):
            plan_shards(object(), 2, "hash", {})
