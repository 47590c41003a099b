"""Integration tests for observability over the concurrent runtime.

The acceptance bar from the issue: on Example 2, every compensating
query span must link back (``causes``) to the update span that caused it
and (``compensates``) to the UQS entries it offsets; and the exported
metrics must reconcile exactly with ``RuntimeResult.metrics_table()``.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.eca import ECA
from repro.durability.crash import CrashPolicy
from repro.errors import SimulationError
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, Observability, run_concurrent
from repro.sharding import ExplicitPartitioner
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload


def example2_run(obs, seed=7, **kwargs):
    scenario = PAPER_EXAMPLES["example-2"]
    source = MemorySource(scenario.schemas, scenario.initial)
    warehouse = ECA(scenario.view, evaluate_view(scenario.view, source.snapshot()))
    result = run_concurrent(
        source,
        warehouse,
        scenario.updates,
        clients=2,
        seed=seed,
        obs=obs,
        **kwargs,
    )
    return scenario, result


def spans_by_id(obs):
    return {span.span_id: span for span in obs.tracer.spans()}


class TestCausalTrace:
    def test_every_query_links_to_its_update(self):
        obs = Observability()
        example2_run(obs)
        spans = spans_by_id(obs)
        queries = [s for s in spans.values() if s.name == "wh.query"]
        assert queries, "expected at least one compensating query"
        for query in queries:
            causes = query.linked("causes")
            assert causes, f"query span {query!r} has no causes link"
            for target in causes:
                assert spans[target].name == "source.update"
            # The parent event processes the same update the query maintains.
            parent = spans[query.parent_id]
            assert parent.name == "wh.update"
            assert parent.linked("causes") == causes

    def test_second_update_compensates_against_first_query(self):
        # Example 2: U2 arrives while Q1 is unanswered, so Q2 carries a
        # compensates edge to Q1's span (the -r1[4,2]><Q1 term of 5.2).
        obs = Observability()
        example2_run(obs)
        spans = spans_by_id(obs)
        compensating = [
            s for s in spans.values() if s.name == "wh.query" and s.linked("compensates")
        ]
        assert compensating
        for query in compensating:
            for target in query.linked("compensates"):
                assert spans[target].name == "wh.query"
                assert spans[target].start <= query.start

    def test_answers_link_back_to_queries_and_install_closes_the_chain(self):
        obs = Observability()
        example2_run(obs)
        spans = spans_by_id(obs)
        answers = [s for s in spans.values() if s.name == "source.answer"]
        assert answers
        for answer in answers:
            (target,) = answer.linked("causes")
            assert spans[target].name == "wh.query"
            assert spans[target].attrs["query_id"] == answer.attrs["query_id"]
        installs = [s for s in spans.values() if s.name == "wh.install"]
        assert installs, "ECA must install COLLECT when the UQS drains"
        for install in installs:
            targets = install.linked("installs")
            assert targets
            for target in targets:
                assert spans[target].name == "source.answer"

    def test_timestamps_use_the_virtual_clock(self):
        obs = Observability()
        example2_run(obs, faults=FaultPlan(latency=1.0, jitter=2.0, drop_rate=0.0))
        starts = [span.start for span in obs.tracer.spans()]
        assert starts == sorted(starts)
        assert starts[-1] > 0.0  # virtual latency advanced the clock

    def test_trace_disabled_keeps_metrics_only(self):
        obs = Observability(trace=False)
        example2_run(obs)
        assert len(obs.tracer) == 0
        assert obs.registry.get("repro_warehouse_events_total").value(kind="W_up") == 2


class TestMetricsReconciliation:
    def test_registry_matches_metrics_table(self):
        obs = Observability()
        _, result = example2_run(obs)
        table = {row["actor"]: row for row in result.metrics_table()}
        sent = obs.registry.get("repro_actor_sent_total")
        received = obs.registry.get("repro_actor_received_total")
        for name, metrics in result.metrics.items():
            role = metrics.role
            assert sent.value(actor=name, role=role) == table[name]["sent"]
            assert received.value(actor=name, role=role) == table[name]["received"]
        ch_sent = obs.registry.get("repro_channel_sent_total")
        ch_bytes = obs.registry.get("repro_channel_bytes_total")
        for name, stats in result.channel_stats.items():
            assert ch_sent.value(channel=name) == stats.sent
            assert ch_bytes.value(channel=name) == stats.sent_bytes
            assert table[f"ch:{name}"]["sent"] == stats.sent

    def test_live_counters_match_final_accounting(self):
        obs = Observability()
        _, result = example2_run(obs)
        events = obs.registry.get("repro_warehouse_events_total")
        processed = sum(
            events.value(kind=kind) for kind in ("W_up", "W_ans", "W_ref")
        )
        warehouse_received = result.metrics["warehouse"].received
        assert processed == warehouse_received
        updates = obs.registry.get("repro_source_updates_total")
        assert updates.value(source="source") == result.updates

    def test_staleness_gauge_settles_to_zero(self):
        obs = Observability()
        example2_run(obs)
        assert obs.registry.get("repro_staleness_lag_updates").value() == 0
        assert obs.registry.get("repro_uqs_size").value() == 0

    def test_algorithm_gauges_exported(self):
        obs = Observability()
        example2_run(obs)
        gauge = obs.registry.get("repro_algorithm_gauge")
        assert gauge.value(gauge="uqs") == 0
        assert gauge.value(gauge="collect_tuples") == 0

    def test_client_with_zero_reads_still_reports_a_row(self):
        # Regression: role counters now pre-declare, so an idle client's
        # ``reads`` column is an explicit 0 instead of a missing key.
        obs = Observability()
        _, result = example2_run(obs, client_reads=0)
        table = {row["actor"]: row for row in result.metrics_table()}
        assert table["client-0"]["reads"] == 0
        assert "reads" in result.metrics["client-0"].as_dict()
        reads = obs.registry.get("repro_actor_reads_total")
        assert reads.value(actor="client-0", role="client") == 0


class TestDurabilityObservability:
    def test_crash_and_recovery_emit_linked_spans(self, tmp_path):
        obs = Observability()
        _, result = example2_run(
            obs,
            wal_dir=str(tmp_path / "wal"),
            snapshot_every=2,
            crash=CrashPolicy(mode="mid-uqs", seed=7),
        )
        assert result.crashes, "crash policy must fire on this workload"
        spans = spans_by_id(obs)
        crashes = [s for s in spans.values() if s.name == "wh.crash"]
        recoveries = [s for s in spans.values() if s.name == "wh.recovery"]
        assert len(crashes) == len(result.crashes)
        assert len(recoveries) == len(result.crashes)
        for recovery in recoveries:
            (target,) = recovery.linked("recovers")
            assert spans[target].name == "wh.crash"
        registry = obs.registry
        assert registry.get("repro_warehouse_recoveries_total").value() == len(
            result.crashes
        )
        assert registry.get("repro_wal_append_total").value(type="recv") > 0
        assert registry.get("repro_wal_snapshot_total").value() > 0
        assert registry.get("repro_wal_records").value() == result.wal_stats["records"]

    def test_obs_does_not_change_the_run(self, tmp_path):
        # Determinism: the same seed with and without observability must
        # produce the identical event trace and final view.
        _, bare = example2_run(None)
        _, observed = example2_run(Observability())
        assert [e.kind for e in bare.trace.events] == [
            e.kind for e in observed.trace.events
        ]
        assert bare.final_view == observed.final_view

    def test_a_24_update_run_ends_alike_observed_or_not(self):
        """On the k=24 random workload, with and without observability:
        every update runs, the observed run records spans, and both end
        in the same view."""
        schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}

        def run(obs):
            view = View.natural_join("V", schemas, ["W", "Y"])
            source = MemorySource(schemas, initial)
            warehouse = ECA(view, evaluate_view(view, source.snapshot()))
            workload = random_workload(schemas, 24, seed=13, initial=initial)
            return run_concurrent(
                source, warehouse, workload, clients=2, seed=1, obs=obs
            )

        bare = run(None)
        obs = Observability()
        observed = run(obs)
        assert bare.updates == observed.updates == 24
        assert observed.final_view == bare.final_view
        assert len(obs.tracer) > 0


def sharded_run(obs, seed=5, updates=(4, 4), partitioner="hash"):
    """Two sources with one join view each, placed one view per shard;
    source ``s<i>`` executes ``updates[i]`` updates."""
    sources, algorithms, workloads = {}, {}, {}
    for index in range(2):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {f"{prefix}r1": [(1, 2), (2, 3)], f"{prefix}r2": [(2, 5), (3, 6)]}
        sources[prefix] = MemorySource(schemas, initial)
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        algorithms[view.name] = ECA(
            view, evaluate_view(view, sources[prefix].snapshot())
        )
        workloads[prefix] = random_workload(
            schemas, updates[index], seed=seed + index, initial=initial,
            respect_keys=True,
        )
    return run_concurrent(
        sources, WarehouseCatalog(algorithms), workloads,
        clients=0, seed=seed, shards=2, partitioner=partitioner, obs=obs,
    )


class TestShardedCausalTrace:
    def test_links_resolve_across_the_source_hop(self):
        """Regression: shards bound their query spans under shard-local
        ids while sources looked them up by the id on the wire, so every
        ``source.answer``, ``wh.answer`` and ``wh.install`` span of a
        sharded run had no links at all."""
        obs = Observability(sharded=True)
        result = sharded_run(obs)
        assert sorted(result.shard_info["assignment"].values()) == [0, 1]
        spans = spans_by_id(obs)
        answers = [s for s in spans.values() if s.name == "source.answer"]
        assert answers
        for answer in answers:
            (target,) = answer.linked("causes")
            query = spans[target]
            assert query.name == "wh.query"
            # The query span keeps the shard's own id and its shard label;
            # the source saw that id's place in the shard's slice.
            assert (
                query.attrs["query_id"] * 2 + int(query.attrs["shard"])
                == answer.attrs["query_id"]
            )
        absorbed = [s for s in spans.values() if s.name == "wh.answer"]
        assert len(absorbed) == len(answers)
        for event in absorbed:
            (target,) = event.linked("causes")
            assert spans[target].name == "source.answer"
        installs = [s for s in spans.values() if s.name == "wh.install"]
        assert installs
        for install in installs:
            targets = install.linked("installs")
            assert len(targets) == install.attrs["drained"]
            assert all(spans[target].name == "source.answer" for target in targets)


class TestObsMustMatchTheTopology:
    def test_a_sharded_obs_on_an_unsharded_run_is_rejected_up_front(self, tmp_path):
        """Regression: only the other mismatch was checked, so this one
        opened the transport and the WAL, let the sources start, and died
        inside the warehouse's first event on a metric-label error."""
        with pytest.raises(SimulationError, match=r"Observability\(sharded=False\)"):
            example2_run(Observability(sharded=True), wal_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []



#: Series some store already holds: ``finalize`` writes them, no hook does.
READ_AT_THE_END = (
    "repro_source_updates_total",
    "repro_source_answers_total",
    "repro_client_reads_total",
    "repro_queries_sent_total",
    "repro_warehouse_crashes_total",
    "repro_warehouse_recoveries_total",
    "repro_recovery_replayed_total",
    "repro_uqs_size",
    "repro_algorithm_gauge",
    "repro_shared_queries_issued",
    "repro_shared_queries_saved",
)


class TestSeriesReadAtTheEnd:
    def test_no_hook_writes_a_series_read_at_the_end(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            Observability, "finalize", lambda self, result, units: self.registry
        )
        unsharded = Observability()
        _, result = example2_run(
            unsharded,
            wal_dir=str(tmp_path / "wal"),
            snapshot_every=2,
            crash=CrashPolicy(mode="mid-uqs", seed=7),
        )
        assert result.crashes and result.metrics["client-0"].events["reads"]
        sharded = Observability(sharded=True)
        sharded_run(sharded)
        for obs in (unsharded, sharded):
            assert obs.registry.get("repro_warehouse_events_total").series()
            for name in READ_AT_THE_END:
                assert obs.registry.get(name).series() == {}, name

    def test_each_unit_reads_its_gauges_once_whatever_the_event_count(
        self, monkeypatch
    ):
        calls = Counter()
        for method in ("gauges", "shared_query_stats"):
            original = getattr(WarehouseCatalog, method)

            def counted(self, original=original, method=method):
                calls[method, id(self)] += 1
                return original(self)

            monkeypatch.setattr(WarehouseCatalog, method, counted)
        obs = Observability(sharded=True)
        result = sharded_run(obs)
        catalogs = list(result.shard_info["algorithms"].values())
        assert len(catalogs) == 2
        events = obs.registry.get("repro_warehouse_events_total").series()
        for shard in ("0", "1"):
            ran = sum(n for labels, n in events.items() if labels[-1] == shard)
            assert ran > 1
        assert calls == Counter(
            {(method, id(catalog)): 1
             for method in ("gauges", "shared_query_stats")
             for catalog in catalogs}
        )

    def test_a_shard_no_update_reaches_exports_no_gauge(self):
        obs = Observability(sharded=True)
        result = sharded_run(
            obs,
            updates=(4, 0),
            partitioner=ExplicitPartitioner({("V0",): 0, ("V1",): 1}),
        )
        assert result.shard_info["assignment"] == {"V0": 0, "V1": 1}
        for name in (
            "repro_uqs_size",
            "repro_algorithm_gauge",
            "repro_staleness_lag_updates",
        ):
            series = obs.registry.get(name).series()
            assert {labels[-1] for labels in series} == {"0"}, name
