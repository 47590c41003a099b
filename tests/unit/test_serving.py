"""Unit tests for ``repro.serving``: cache, policies, reader, keys.

The invalidation-side contracts (the rows a :class:`MaterializedView`
journals for a reader, and :func:`written_keys` projecting them to
addresses on algorithms and catalogs) are tested here too — the serving
tier's correctness rests on them.
"""

import asyncio

import pytest

from repro.core.eca import ECA
from repro.errors import SimulationError
from repro.obs import Observability
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.runtime.actors import WarehouseUnit
from repro.serving import (
    FIFOPolicy,
    LRUPolicy,
    ReadClientActor,
    ServingCache,
    reader_for,
    row_key,
)
from repro.serving.keys import written_keys
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.warehouse.state import MaterializedView


def make_view(prefix=""):
    schemas = [
        RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
        RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
    ]
    initial = {
        f"{prefix}r1": [(1, 2), (2, 3)],
        f"{prefix}r2": [(2, 5), (3, 6)],
    }
    view = View.natural_join(f"V{prefix or 0}", schemas, ["W", "Y"])
    return schemas, initial, view


def make_eca(prefix=""):
    schemas, initial, view = make_view(prefix)
    source = MemorySource(schemas, initial)
    return ECA(view, evaluate_view(view, source.snapshot()))


class TestRowKey:
    def test_projects_positions(self):
        assert row_key((7, 8, 9), (2, 0)) == (9, 7)

    def test_none_positions_means_whole_row(self):
        assert row_key((7, 8), None) == (7, 8)


class TestServingKeyPositions:
    def test_join_view_projects_first_keyed_relation(self):
        _, _, view = make_view()
        # r1's key (W) appears at output position 0 of (W, Y).
        assert view.serving_key_positions() == (0,)

    def test_view_without_projected_key_falls_back_to_none(self):
        schemas = [
            RelationSchema("a", ("P", "Q"), key=("P",)),
            RelationSchema("b", ("Q", "R")),
        ]
        view = View.natural_join("V", schemas, ["R"])  # drops every key
        assert view.serving_key_positions() is None

    def test_union_view_has_no_serving_key(self):
        _, _, view = make_view()
        union = UnionView("U", [view])
        assert union.serving_key_positions() is None


class TestDirtyTracking:
    """What a cache invalidates is what each view journaled for it."""

    @staticmethod
    def written(mv):
        return {row for row, _ in mv.take_changes("cache")}

    def test_apply_delta_reports_changed_rows(self):
        _, _, view = make_view()
        mv = MaterializedView(view, SignedBag({(1, 5): 1}))
        # Opening the journal reports nothing: caches start empty.
        assert mv.take_changes("cache") is None
        delta = SignedBag({(2, 6): 1, (1, 5): -1})
        mv.apply_delta(delta)
        assert self.written(mv) == {(2, 6), (1, 5)}
        # Taking resets.
        assert self.written(mv) == set()

    def test_replace_reports_only_differing_rows(self):
        _, _, view = make_view()
        mv = MaterializedView(view, SignedBag({(1, 5): 1, (2, 6): 1}))
        mv.take_changes("cache")
        mv.replace(SignedBag({(1, 5): 1, (3, 7): 1}))
        assert self.written(mv) == {(2, 6), (3, 7)}

    def test_key_delete_reports_doomed_rows(self):
        _, _, view = make_view()
        mv = MaterializedView(view, SignedBag({(1, 5): 1, (2, 6): 1}))
        mv.take_changes("cache")
        removed = mv.key_delete("r1", (1, 2))
        assert removed == 1
        assert self.written(mv) == {(1, 5)}

    def test_algorithm_dirty_keys_project_serving_keys(self):
        algorithm = make_eca()
        assert written_keys(algorithm, "cache") == set()
        algorithm.mv.apply_delta(SignedBag({(4, 9): 1}))
        assert written_keys(algorithm, "cache") == {("V0", (4,))}
        assert written_keys(algorithm, "cache") == set()

    def test_catalog_dirty_keys_are_tagged_per_view(self):
        catalog = WarehouseCatalog(
            {"Va": make_eca("a"), "Vb": make_eca("b")}
        )
        assert written_keys(catalog, "cache") == set()
        catalog.algorithms["Va"].mv.apply_delta(SignedBag({(7, 7): 1}))
        assert written_keys(catalog, "cache") == {("Va", (7,))}

    def test_a_shared_class_invalidates_every_members_key_after_one_write(self):
        """Three equal views, sharing on, are one algorithm and one
        journal: one write there invalidates the key under each name,
        and a read under any name loads the new rows."""
        catalog = WarehouseCatalog(
            {name: make_eca() for name in ("Va", "Vb", "Vc")},
            share_compensation=True,
        )
        ((algorithm, names),) = catalog.classes()
        cache = ServingCache(capacity=8, staleness_bound=0)
        reader = reader_for(catalog)
        cache.watch(catalog)
        for name in names:
            assert cache.read(name, (1,), reader.loader(name, (1,))).status == "miss"
        algorithm.mv.apply_delta(SignedBag({(1, 6): 1}))
        cache.invalidate_writes(catalog)
        for name in names:
            served = cache.read(name, (1,), reader.loader(name, (1,)))
            assert served.status == "miss"
            assert served.value == SignedBag({(1, 5): 1, (1, 6): 1})
        assert written_keys(catalog, "cache") == set()


class TestServingCache:
    def test_rejects_bad_parameters(self):
        with pytest.raises(SimulationError):
            ServingCache(capacity=0)
        with pytest.raises(SimulationError):
            ServingCache(staleness_bound=-1)
        with pytest.raises(SimulationError):
            ServingCache(policy="clock")

    def test_miss_then_hit(self):
        cache = ServingCache(capacity=4)
        loads = []

        def loader():
            loads.append(1)
            return "answer"

        first = cache.read("V", (1,), loader)
        second = cache.read("V", (1,), loader)
        assert (first.status, second.status) == ("miss", "hit")
        assert second.value == "answer"
        assert len(loads) == 1

    def test_bound_zero_reloads_on_invalidation(self):
        cache = ServingCache(capacity=4, staleness_bound=0)
        values = iter(["old", "new"])
        cache.read("V", (1,), lambda: next(values))
        cache.invalidate([("V", (1,))])
        result = cache.read("V", (1,), lambda: next(values))
        assert result.status == "miss"
        assert result.value == "new"

    def test_within_bound_serves_stale_with_lag(self):
        cache = ServingCache(capacity=4, staleness_bound=2)
        cache.read("V", (1,), lambda: "old")
        cache.invalidate([("V", (1,))])
        cache.invalidate([("V", (1,))])
        result = cache.read("V", (1,), lambda: "new")
        assert result.status == "stale"
        assert result.value == "old"
        assert result.lag == 2
        assert cache.max_served_lag == 2

    def test_beyond_bound_forces_reload(self):
        cache = ServingCache(capacity=4, staleness_bound=1)
        cache.read("V", (1,), lambda: "old")
        cache.invalidate([("V", (1,)), ("V", (1,))])
        result = cache.read("V", (1,), lambda: "new")
        assert result.status == "miss"
        assert result.value == "new"
        # The reload reset the entry's debt: next read is a fresh hit.
        assert cache.read("V", (1,), lambda: "x").status == "hit"

    def test_invalidations_count_non_resident_keys(self):
        cache = ServingCache(capacity=4)
        cache.invalidate([("V", (1,)), ("V", (2,))])
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_lru_evicts_least_recent(self):
        cache = ServingCache(capacity=2, policy="lru")
        cache.read("V", (1,), lambda: "a")
        cache.read("V", (2,), lambda: "b")
        cache.read("V", (1,), lambda: "a")  # touch (1,)
        cache.read("V", (3,), lambda: "c")  # evicts (2,)
        assert cache.evictions == 1
        assert cache.read("V", (1,), lambda: "a").status == "hit"
        assert cache.read("V", (2,), lambda: "b").status == "miss"

    def test_fifo_ignores_touches(self):
        cache = ServingCache(capacity=2, policy="fifo")
        cache.read("V", (1,), lambda: "a")
        cache.read("V", (2,), lambda: "b")
        cache.read("V", (1,), lambda: "a")  # hit, but no recency refresh
        cache.read("V", (3,), lambda: "c")  # evicts (1,): insertion order
        assert cache.read("V", (1,), lambda: "a").status == "miss"

    def test_policy_classes_exported(self):
        assert LRUPolicy.name == "lru"
        assert FIFOPolicy.name == "fifo"

    def test_freshness_reports_per_view_lag(self):
        cache = ServingCache(capacity=4, staleness_bound=3)
        cache.read("Va", (1,), lambda: "a")
        cache.read("Vb", (2,), lambda: "b")
        cache.invalidate([("Va", (1,))])
        freshness = cache.freshness()
        assert freshness["Va"] == {
            "entries": 1, "stale_entries": 1, "max_updates_behind": 1
        }
        assert freshness["Vb"]["stale_entries"] == 0

    def test_report_summarizes_the_run(self):
        cache = ServingCache(capacity=4, staleness_bound=1)
        cache.read("V", (1,), lambda: "a")
        cache.read("V", (1,), lambda: "a")
        cache.invalidate([("V", (1,))])
        cache.read("V", (1,), lambda: "a")
        report = cache.report()
        assert report["reads"] == 3
        assert report["hits"] == 1
        assert report["stale_served"] == 1
        assert report["misses"] == 1
        assert report["hit_rate"] == pytest.approx(2 / 3)
        assert report["policy"] == "lru"

    def test_attach_lag_annotates_results(self):
        cache = ServingCache(capacity=4)
        cache.attach_lag(lambda: 5)
        result = cache.read("V", (1,), lambda: "a")
        assert result.backend_lag == 5

    def test_bind_obs_registers_cache_counters(self):
        obs = Observability()
        cache = ServingCache(capacity=4, staleness_bound=1)
        cache.bind_obs(obs)
        cache.read("V", (1,), lambda: "a")
        cache.read("V", (1,), lambda: "a")
        cache.invalidate([("V", (1,))])
        cache.read("V", (1,), lambda: "a")
        registry = obs.registry
        assert registry.get("repro_cache_hits").value(view="V") == 1
        assert registry.get("repro_cache_misses").value(view="V") == 1
        assert registry.get("repro_cache_stale_served").value(view="V") == 1
        assert registry.get("repro_cache_invalidations").value(view="V") == 1

    def test_bind_obs_none_is_a_no_op(self):
        cache = ServingCache()
        cache.bind_obs(None)
        assert cache.read("V", (1,), lambda: "a").status == "miss"


class TestWarehouseReader:
    def test_reads_one_view_by_serving_key(self):
        algorithm = make_eca()
        reader = reader_for(algorithm)
        bag = reader.read("V0", (1,))
        assert set(bag.rows()) == {(1, 5)}
        assert reader.reads == 1

    def test_unknown_view_is_a_key_error(self):
        reader = reader_for(make_eca())
        with pytest.raises(KeyError):
            reader.read("nope", (1,))

    def test_catalog_reader_filters_tagged_rows(self):
        catalog = WarehouseCatalog({"Va": make_eca("a"), "Vb": make_eca("b")})
        reader = reader_for(catalog)
        assert reader.view_names == ["Va", "Vb"]
        bag = reader.read("Va", (2,))
        assert set(bag.rows()) == {(2, 6)}

    def test_current_keys_enumerates_the_universe(self):
        reader = reader_for(make_eca())
        assert reader.current_keys() == [("V0", (1,)), ("V0", (2,))]

    def test_loader_closes_over_the_address(self):
        reader = reader_for(make_eca())
        loader = reader.loader("V0", (2,))
        assert set(loader().rows()) == {(2, 6)}

    def test_reads_follow_the_units_current_incarnation(self):
        # A crash re-points ``unit.algorithm`` at the recovered
        # incarnation; a reader built before it must read that one.
        unit = WarehouseUnit(make_eca(), {})
        reader = reader_for(unit)
        assert set(reader.read("V0", (1,)).rows()) == {(1, 5)}
        _, _, view = make_view()
        unit.algorithm = ECA(view, SignedBag({(1, 9): 1}))
        assert set(reader.read("V0", (1,)).rows()) == {(1, 9)}
        assert set(reader.scan("V0", (1,)).rows()) == {(1, 9)}
        assert reader.current_keys() == [("V0", (1,))]

    def test_whole_row_keys_without_serving_positions(self):
        schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        view = View.natural_join("V", schemas, ["W", "Y"])
        assert view.serving_key_positions() is None
        reader = reader_for(ECA(view, SignedBag({(1, 2): 1, (3, 4): 1})))
        assert set(reader.read("V", (1, 2)).rows()) == {(1, 2)}
        assert reader.read("V", (1, 4)).is_empty()
        assert reader.current_keys() == [("V", (1, 2)), ("V", (3, 4))]

    def test_scan_is_the_read_computed_without_the_index(self):
        catalog = WarehouseCatalog({"Va": make_eca("a"), "Vb": make_eca("b")})
        reader = reader_for(catalog)
        for view_name, key in reader.current_keys() + [("Va", (7,))]:
            assert reader.scan(view_name, key) == reader.read(view_name, key)
        assert reader.reads == 5  # scans are not backend reads
        solo = reader_for(make_eca())
        assert solo.scan("V0", (2,)) == solo.read("V0", (2,)) == SignedBag({(2, 6): 1})


class TestVerifyOracle:
    """``verify=True`` compares a served value with a scan of the
    frontend's ``view_state()``, never with the index it was read through."""

    def serve(self, algorithm, address):
        client = ReadClientActor(
            "reader-0",
            ServingCache(staleness_bound=0),
            reader_for(algorithm),
            [address],
            verify=True,
        )
        asyncio.run(client.run())
        return client

    def test_a_stale_member_index_is_a_read_mismatch(self, monkeypatch):
        algorithm = make_eca()
        before = algorithm.mv.rows_for_key((1,))
        algorithm.mv.apply_delta(SignedBag({(1, 7): 1}))
        # An index that missed the write: the lookup still answers with
        # what it held before.  Comparing the served value with another
        # ``reader.read`` would agree on the same wrong rows.
        monkeypatch.setattr(algorithm.mv, "rows_for_key", lambda key: before)
        client = self.serve(algorithm, ("V0", (1,)))
        [mismatch] = client.mismatches
        assert mismatch.result.value == SignedBag({(1, 5): 1})
        assert mismatch.expected == SignedBag({(1, 5): 1, (1, 7): 1})

    def test_a_current_index_is_not(self):
        algorithm = make_eca()
        algorithm.mv.apply_delta(SignedBag({(1, 7): 1}))
        client = self.serve(algorithm, ("V0", (1,)))
        assert client.mismatches == []
        assert client.results[0].value == SignedBag({(1, 5): 1, (1, 7): 1})
