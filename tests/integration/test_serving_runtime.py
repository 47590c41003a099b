"""Integration tests: the serving tier over the concurrent runtime.

Covers the tentpole's acceptance surface end to end:

- bound-0 equivalence — every cached read equals the uncached read at
  the same point in the event sequence — on the plain runtime, under
  transport faults, and on a sharded run with a crashed-and-recovered
  shard (recovery replay must not double-invalidate);
- reads across a crash of the one unsharded warehouse come from the
  recovered incarnation, never the dead one;
- stale serving within a nonzero bound, annotated with lag;
- the ``repro_cache_*`` metric series appearing only when a cache is
  bound, with cache-disabled runs exporting byte-identical metrics to a
  build without a serving tier.
"""

from __future__ import annotations

import json

import pytest

import repro.runtime.harness as harness
from repro.core.eca import ECA
from repro.durability.crash import CrashPolicy
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, Observability, run_concurrent
from repro.serving import ServingCache, reader_for, row_key
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload, zipf_read_workload


def build(n_views, updates=8, seed=0):
    """N disjoint two-relation join views, one source each (sharding-ready)."""
    sources = {}
    algorithms = {}
    workloads = {}
    for index in range(n_views):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {
            f"{prefix}r1": [(1, 2), (2, 3)],
            f"{prefix}r2": [(2, 5), (3, 6)],
        }
        source = MemorySource(schemas, initial)
        sources[prefix] = source
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        algorithms[f"V{index}"] = ECA(
            view, evaluate_view(view, source.snapshot())
        )
        workloads[prefix] = random_workload(
            schemas, updates, seed=seed + index, initial=initial,
            respect_keys=True,
        )
    return sources, WarehouseCatalog(algorithms), workloads


def read_mix(catalog, count=40, theta=1.0, seed=0):
    keys = reader_for(catalog).current_keys()
    return zipf_read_workload(keys, count, theta=theta, seed=seed)


class TestServingOverRuntime:
    def test_cache_reduces_backend_reads(self):
        sources, catalog, workloads = build(2, seed=5)
        reads = read_mix(catalog, seed=5)
        cache = ServingCache(capacity=16, staleness_bound=2)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=5,
            cache=cache, read_workload=reads,
        )
        serving = result.serving
        assert serving["reads"] == len(reads)
        assert serving["hits"] > 0
        assert serving["backend_reads"] < serving["reads"]
        assert serving["hit_rate"] > 0.5
        assert "freshness" in serving

    def test_bound_zero_reads_equal_backend_reads(self):
        sources, catalog, workloads = build(2, seed=3)
        reads = read_mix(catalog, seed=3)
        cache = ServingCache(capacity=16, staleness_bound=0)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=3,
            cache=cache, read_workload=reads, verify_reads=True,
        )
        assert result.read_mismatches == []
        assert result.serving["max_served_lag"] == 0
        assert result.serving["stale_served"] == 0

    def test_bound_zero_under_transport_faults(self):
        sources, catalog, workloads = build(2, seed=9)
        reads = read_mix(catalog, seed=9)
        cache = ServingCache(capacity=16, staleness_bound=0)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=9,
            faults=FaultPlan(latency=1.0, jitter=2.0, drop_rate=0.2),
            cache=cache, read_workload=reads, verify_reads=True,
        )
        assert result.read_mismatches == []

    def test_stale_served_lag_never_exceeds_bound(self):
        bound = 3
        sources, catalog, workloads = build(2, updates=12, seed=7)
        reads = read_mix(catalog, count=60, seed=7)
        cache = ServingCache(capacity=16, staleness_bound=bound)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=7,
            cache=cache, read_workload=reads,
        )
        results = result.read_results["reader-0"]
        assert len(results) == len(reads)
        for read in results:
            assert read.status in ("hit", "stale", "miss")
            assert read.lag <= bound
            if read.status != "stale":
                assert read.lag == 0
        assert result.serving["max_served_lag"] <= bound

    def test_reader_metrics_reach_the_result_table(self):
        sources, catalog, workloads = build(2, seed=1)
        reads = read_mix(catalog, seed=1)
        cache = ServingCache(capacity=16, staleness_bound=1)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=1,
            cache=cache, read_workload=reads,
        )
        table = {row["actor"]: row for row in result.metrics_table()}
        assert table["reader-0"]["reads"] == len(reads)

    def test_cache_off_reader_reads_directly(self):
        sources, catalog, workloads = build(2, seed=4)
        reads = read_mix(catalog, seed=4)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=4,
            read_workload=reads,
        )
        assert result.serving == {
            "reads": len(reads), "backend_reads": len(reads)
        }
        assert all(
            r.status == "direct" for r in result.read_results["reader-0"]
        )


class TestHitRateTradeoffs:
    """One maintenance run (two views, 16 updates each) read by Zipf
    mixes of 200 reads: the staleness bound swept, then the skew."""

    BOUNDS = (0, 1, 2, 4, 8)

    @staticmethod
    def run(reads, cache=None):
        sources, catalog, workloads = build(2, updates=16, seed=11)
        return run_concurrent(
            sources, catalog, workloads, clients=0, seed=11,
            cache=cache, read_workload=reads,
        )

    def test_a_wider_bound_serves_more_and_cuts_backend_reads_5x(self):
        _, catalog, _ = build(2, updates=16, seed=11)
        reads = read_mix(catalog, count=200, theta=1.0, seed=11)
        baseline = self.run(reads)
        runs = [
            self.run(reads, ServingCache(capacity=32, staleness_bound=bound))
            for bound in self.BOUNDS
        ]
        assert baseline.serving["reads"] == 200
        assert all(run.serving["reads"] == 200 for run in runs)
        # Widening the bound never lowers the hit rate nor raises backend
        # traffic.
        hit_rates = [run.serving["hit_rate"] for run in runs]
        backend = [run.serving["backend_reads"] for run in runs]
        assert hit_rates == sorted(hit_rates)
        assert backend == sorted(backend, reverse=True)
        # Every direct read hits the warehouse; bound 2 cuts that 5x.
        assert baseline.serving["backend_reads"] == 200
        assert dict(zip(self.BOUNDS, backend))[2] * 5 <= 200
        for bound, run in zip(self.BOUNDS, runs):
            assert run.serving["max_served_lag"] <= bound
            assert all(read.lag <= bound for read in run.read_results["reader-0"])

    def test_skew_raises_the_hit_rate_of_a_one_entry_cache(self):
        _, catalog, _ = build(2, updates=16, seed=11)
        rates = [
            self.run(
                read_mix(catalog, count=200, theta=theta, seed=11),
                ServingCache(capacity=1, staleness_bound=1),
            ).serving["hit_rate"]
            for theta in (0.0, 1.0, 8.0)
        ]
        assert rates == sorted(rates)
        assert rates[-1] > rates[0]
        assert rates[-1] > 0.9


class LoggingCache(ServingCache):
    """Logs reads and invalidating events in the order the run made them."""

    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self.log = log

    def read(self, view_name, key, loader):
        self.log.append("read")
        return super().read(view_name, key, loader)

    def invalidate(self, keys):
        self.log.append("write")
        return super().invalidate(keys)


class TestServingAcrossACrash:
    @pytest.mark.parametrize("seed", [0, 1, 2, 5])
    def test_unsharded_reads_follow_the_recovered_warehouse(
        self, tmp_path, monkeypatch, seed
    ):
        # The crash kills the warehouse before its first view write, so
        # every write lands on the recovered incarnation: a reader still
        # bound to the algorithm the run started with serves ws_0 forever.
        sources, catalog, workloads = build(2, updates=10, seed=seed)
        reads = read_mix(catalog, count=120, seed=seed)
        log = []
        recover = harness.recover

        def logged_recover(*args, **kwargs):
            log.append("recover")
            return recover(*args, **kwargs)

        monkeypatch.setattr(harness, "recover", logged_recover)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=seed,
            wal_dir=str(tmp_path),
            crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=seed),
            cache=LoggingCache(log, capacity=16, staleness_bound=0),
            read_workload=reads, verify_reads=True,
        )
        assert result.crashes, "crash policy must fire on this workload"
        assert result.read_mismatches == []
        after = log[log.index("recover"):]
        assert "write" in after and after[-1] == "read"
        last = {}
        for served in result.read_results["reader-0"]:
            last[(served.view_name, served.key)] = served.value
        assert len(last) > 1
        for (view_name, key), value in last.items():
            positions = catalog.algorithms[view_name].view.serving_key_positions()
            assert value == SignedBag(
                {
                    row[1:]: count
                    for row, count in result.final_view.items()
                    if row[0] == view_name and row_key(row[1:], positions) == key
                }
            ), (view_name, key)


class TestServingSharded:
    def test_sharded_bound_zero_equivalence(self):
        sources, catalog, workloads = build(2, seed=6)
        reads = read_mix(catalog, seed=6)
        cache = ServingCache(capacity=16, staleness_bound=0)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=6, shards=2,
            cache=cache, read_workload=reads, verify_reads=True,
        )
        assert result.read_mismatches == []
        assert result.serving["reads"] == len(reads)

    @pytest.mark.parametrize("crash_shard", [0, 1])
    def test_crashed_and_recovered_shard_keeps_equivalence(
        self, tmp_path, crash_shard
    ):
        # Recovery replays WAL'd events through dispatch_event; those
        # replays must not stream duplicate invalidations (each event
        # invalidated once, in its pre-crash incarnation).
        sources, catalog, workloads = build(2, updates=10, seed=5)
        reads = read_mix(catalog, count=60, seed=5)
        cache = ServingCache(capacity=16, staleness_bound=0)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=5, shards=2,
            wal_dir=str(tmp_path),
            crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=5),
            crash_shard=crash_shard,
            cache=cache, read_workload=reads, verify_reads=True,
        )
        assert result.crashes, "crash policy must fire on this workload"
        assert result.read_mismatches == []


class TestCacheOffMetricsRegression:
    """Cache-disabled runs must export metrics byte-identical to a build
    with no serving tier: the cache series bind lazily, so they may not
    even *exist* unless a cache is attached."""

    # The exact instrument set a cache-off runtime run exports — the
    # pre-serving-tier surface, pinned.
    PINNED = [
        "repro_warehouse_events_total",
        "repro_queries_sent_total",
        "repro_compensating_terms_total",
        "repro_collect_installs_total",
        "repro_source_updates_total",
        "repro_source_answers_total",
        "repro_answer_tuples",
        "repro_client_reads_total",
        "repro_wal_append_total",
        "repro_wal_snapshot_total",
        "repro_warehouse_crashes_total",
        "repro_warehouse_recoveries_total",
        "repro_recovery_replayed_total",
        "repro_uqs_size",
        "repro_staleness_lag_updates",
        "repro_algorithm_gauge",
        "repro_shared_queries_issued",
        "repro_shared_queries_saved",
        "repro_actor_sent_total",
        "repro_actor_received_total",
        "repro_actor_queries_answered_total",
        "repro_actor_updates_applied_total",
        "repro_actor_reads_total",
        "repro_channel_sent_total",
        "repro_channel_delivered_total",
        "repro_channel_bytes_total",
        "repro_channel_dropped_total",
        "repro_channel_retries_total",
        "repro_channel_reordered_total",
        "repro_channel_max_pending_total",
        "repro_run",
    ]

    @staticmethod
    def run_once(cache=None, reads=None, verify=False):
        sources, catalog, workloads = build(2, updates=6, seed=2)
        obs = Observability()
        run_concurrent(
            sources, catalog, workloads, clients=1, seed=2, obs=obs,
            cache=cache, read_workload=reads, verify_reads=verify,
        )
        return obs.registry

    @staticmethod
    def stable_json(registry):
        dump = registry.as_json()
        # Wall-clock time is the one legitimately nondeterministic stat.
        dump["repro_run"]["series"] = [
            s for s in dump["repro_run"]["series"]
            if s["labels"] != {"stat": "wall_seconds"}
        ]
        return json.dumps(dump, sort_keys=True)

    def test_cache_off_exports_exactly_the_pinned_instruments(self):
        registry = self.run_once()
        assert [i.name for i in registry.instruments()] == self.PINNED

    def test_cache_off_exports_no_serving_series(self):
        registry = self.run_once()
        prom = registry.render_prometheus()
        assert "repro_cache" not in prom
        assert "reader" not in prom

    def test_cache_off_export_is_byte_identical_across_runs(self):
        a, b = self.run_once(), self.run_once()
        assert self.stable_json(a) == self.stable_json(b)
        prom_a = [
            line for line in a.render_prometheus().splitlines()
            if 'stat="wall_seconds"' not in line
        ]
        prom_b = [
            line for line in b.render_prometheus().splitlines()
            if 'stat="wall_seconds"' not in line
        ]
        assert prom_a == prom_b

    def test_cache_on_only_adds_series(self):
        sources, catalog, workloads = build(2, updates=6, seed=2)
        reads = read_mix(catalog, count=20, seed=2)
        registry = self.run_once(
            cache=ServingCache(capacity=8, staleness_bound=1), reads=reads
        )
        names = {i.name for i in registry.instruments()}
        assert set(self.PINNED) <= names
        extras = names - set(self.PINNED)
        assert extras == {
            "repro_cache_hits",
            "repro_cache_misses",
            "repro_cache_stale_served",
            "repro_cache_invalidations",
            "repro_actor_cache_hits_total",
            "repro_actor_cache_misses_total",
            "repro_actor_cache_stale_total",
        }
