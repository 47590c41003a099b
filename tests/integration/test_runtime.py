"""Integration tests for the concurrent runtime.

The acceptance bar: with faults disabled, ``run_concurrent`` must produce
traces the Section 3.1 checker certifies strongly consistent for ECA on
the paper's Example 2/3 workloads; and the fault-injecting transport must
be fully deterministic under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.consistency import check_trace
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.multisource.strobe import StrobeStyle
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]


def build_eca(scenario_name):
    """Source + ECA warehouse + workload from one of the paper's examples."""
    scenario = PAPER_EXAMPLES[scenario_name]
    source = MemorySource(scenario.schemas, scenario.initial)
    warehouse = ECA(
        scenario.view, evaluate_view(scenario.view, source.snapshot())
    )
    return scenario, source, warehouse


class TestFaultsOffStrongConsistency:
    """Acceptance: the reliable transport preserves ECA's guarantee."""

    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    @pytest.mark.parametrize("seed", range(8))
    def test_eca_on_paper_examples(self, scenario_name, seed):
        scenario, source, warehouse = build_eca(scenario_name)
        result = run_concurrent(
            source, warehouse, scenario.updates, clients=2, seed=seed
        )
        report = check_trace(scenario.view, result.trace)
        assert report.strongly_consistent, report.detail
        correct = evaluate_view(scenario.view, result.trace.final_source_state)
        assert result.final_view == correct

    def test_quiesce_latency_is_zero_without_faults(self):
        scenario, source, warehouse = build_eca("example-2")
        result = run_concurrent(source, warehouse, scenario.updates, seed=1)
        assert result.quiesce_latency == 0.0
        assert result.virtual_duration == 0.0

    def test_eca_on_randomized_workload_with_clients(self):
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        view = View.natural_join("V", SCHEMAS, ["W", "Y"])
        source = MemorySource(SCHEMAS, initial)
        warehouse = ECA(view, evaluate_view(view, source.snapshot()))
        workload = random_workload(SCHEMAS, 14, seed=4, initial=initial)
        result = run_concurrent(
            source, warehouse, workload, clients=3, client_reads=5, seed=7
        )
        report = check_trace(view, result.trace)
        assert report.strongly_consistent, report.detail
        # Every client observation is a state the warehouse really exposed.
        exposed = list(result.trace.view_states)
        for observations in result.observations.values():
            assert len(observations) == 5
            for _, seen in observations:
                assert seen in exposed


class TestDeterminism:
    """Acceptance: same seed ⇒ identical trace, twice in a row."""

    def run_once(self, seed):
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        view = View.natural_join("V", SCHEMAS, ["W", "Y"])
        source = MemorySource(SCHEMAS, initial)
        warehouse = ECA(view, evaluate_view(view, source.snapshot()))
        workload = random_workload(SCHEMAS, 12, seed=99, initial=initial)
        faults = FaultPlan(latency=1.0, jitter=3.0, drop_rate=0.3)
        return run_concurrent(
            source, warehouse, workload, clients=3, faults=faults, seed=seed
        )

    def test_same_seed_same_trace(self):
        first, second = self.run_once(5), self.run_once(5)
        assert [repr(e) for e in first.trace.events] == [
            repr(e) for e in second.trace.events
        ]
        assert first.trace.view_states == second.trace.view_states
        assert first.trace.source_states == second.trace.source_states
        assert first.quiesce_latency == second.quiesce_latency
        assert {c: s.as_dict() for c, s in first.channel_stats.items()} == {
            c: s.as_dict() for c, s in second.channel_stats.items()
        }

    def test_different_seeds_usually_differ(self):
        traces = {
            tuple(repr(e) for e in self.run_once(seed).trace.events)
            for seed in range(6)
        }
        assert len(traces) > 1  # the seed really steers the interleaving


class TestFaultyTransportRuns:
    def test_eca_stays_strongly_consistent_with_fifo_faults(self):
        # Faults delay, jitter, and drop/retry, but per-channel FIFO is
        # preserved — exactly the assumption ECA needs (Section 5.2).
        scenario, source, warehouse = build_eca("example-2")
        faults = FaultPlan(latency=2.0, jitter=5.0, drop_rate=0.4)
        result = run_concurrent(
            source, warehouse, scenario.updates, clients=2, faults=faults, seed=3
        )
        report = check_trace(scenario.view, result.trace)
        assert report.strongly_consistent, report.detail
        assert result.quiesce_latency > 0.0

    def test_metrics_account_for_messages(self):
        scenario, source, warehouse = build_eca("example-2")
        result = run_concurrent(source, warehouse, scenario.updates, seed=0)
        source_metrics = result.metrics["source"]
        warehouse_metrics = result.metrics["warehouse"]
        assert source_metrics.events["updates_applied"] == len(scenario.updates)
        assert source_metrics.sent == warehouse_metrics.received
        assert warehouse_metrics.sent == source_metrics.received
        stats = result.channel_stats
        assert stats["source->wh"].sent == stats["source->wh"].delivered


class TestMultiSource:
    def two_source_catalog(self):
        a = [RelationSchema("a1", ("W", "X")), RelationSchema("a2", ("X", "Y"))]
        b = [RelationSchema("b1", ("P", "Q")), RelationSchema("b2", ("Q", "R"))]
        ia = {"a1": [(1, 2)], "a2": [(2, 4)]}
        ib = {"b1": [(7, 8)], "b2": [(8, 9)]}
        va = View.natural_join("VA", a, ["W"])
        vb = View.natural_join("VB", b, ["P"])
        sa, sb = MemorySource(a, ia), MemorySource(b, ib)
        catalog = WarehouseCatalog(
            {
                "VA": ECA(va, evaluate_view(va, sa.snapshot())),
                "VB": ECA(vb, evaluate_view(vb, sb.snapshot())),
            }
        )
        workload = random_workload(a, 5, seed=1, initial=ia) + random_workload(
            b, 5, seed=2, initial=ib
        )
        return {"alpha": sa, "beta": sb}, catalog, workload

    def test_zero_fault_plan_is_the_reliable_transport(self):
        # Delivery delay is a policy of the one transport: a plan that
        # delays nothing is the plan-less run, message for message.
        runs = []
        for faults in (None, FaultPlan(latency=0, jitter=0, drop_rate=0)):
            sources, catalog, workload = self.two_source_catalog()
            runs.append(
                run_concurrent(
                    sources, catalog, workload, clients=2, seed=6, faults=faults
                )
            )
        reliable, planned = runs
        assert planned.action_log == reliable.action_log
        assert planned.final_view == reliable.final_view
        assert {
            name: stats.as_dict() for name, stats in planned.channel_stats.items()
        } == {name: stats.as_dict() for name, stats in reliable.channel_stats.items()}

    def test_catalog_over_two_sources_converges(self):
        sources, catalog, workload = self.two_source_catalog()
        result = run_concurrent(sources, catalog, workload, clients=2, seed=6)
        report = check_trace(catalog, result.trace)
        # Section 7: per-view ECA buys convergence of the combined state;
        # the tagged union is not strongly consistent in general.
        assert report.convergent, report.detail

    def test_strobe_style_over_two_sources(self):
        keyed = [
            RelationSchema("r1", ("W", "X"), key=("W",)),
            RelationSchema("r2", ("X", "Y"), key=("Y",)),
        ]
        init1, init2 = {"r1": [(1, 2)]}, {"r2": [(2, 3)]}
        view = View.natural_join("V", keyed, ["W", "Y"])
        s1 = MemorySource([keyed[0]], init1)
        s2 = MemorySource([keyed[1]], init2)
        snapshot = dict(s1.snapshot())
        snapshot.update(s2.snapshot())
        strobe = StrobeStyle(
            view, {"r1": "s1", "r2": "s2"}, evaluate_view(view, snapshot)
        )
        workload = random_workload(
            keyed,
            8,
            seed=5,
            initial={"r1": init1["r1"], "r2": init2["r2"]},
            respect_keys=True,
        )
        result = run_concurrent(
            {"s1": s1, "s2": s2}, strobe, workload, clients=2, seed=9
        )
        report = check_trace(view, result.trace)
        assert report.convergent, report.detail

    def test_workload_mapping_form(self):
        sources, catalog, workload = self.two_source_catalog()
        split = {
            "alpha": [u for u in workload if u.relation.startswith("a")],
            "beta": [u for u in workload if u.relation.startswith("b")],
        }
        result = run_concurrent(sources, catalog, split, seed=2)
        assert result.updates == len(workload)
        assert check_trace(catalog, result.trace).convergent


class TestRefreshAndDeferred:
    def test_deferred_eca_flushes_on_client_refresh(self):
        from repro.core.batch import DeferredECA

        initial = {"r1": [(1, 2)], "r2": [(2, 4)]}
        view = View.natural_join("V", SCHEMAS, ["W"])
        source = MemorySource(SCHEMAS, initial)
        warehouse = DeferredECA(view, evaluate_view(view, source.snapshot()))
        workload = [insert("r2", (2, 3)), insert("r1", (4, 2))]
        result = run_concurrent(
            source, warehouse, workload, clients=2, client_reads=3, seed=4
        )
        # Client refreshes forced the deferred buffer to flush; at
        # quiescence the view converged to the final source state.
        correct = evaluate_view(view, result.trace.final_source_state)
        assert result.final_view == correct

    def test_eca_key_runs_concurrently(self):
        keyed = [
            RelationSchema("r1", ("W", "X"), key=("W",)),
            RelationSchema("r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {"r1": [(1, 2)], "r2": [(2, 3)]}
        view = View.natural_join("V", keyed, ["W", "Y"])
        source = MemorySource(keyed, initial)
        warehouse = ECAKey(view, evaluate_view(view, source.snapshot()))
        workload = [
            insert("r2", (2, 4)),
            insert("r1", (3, 2)),
            delete("r1", (1, 2)),
        ]
        result = run_concurrent(source, warehouse, workload, seed=11)
        report = check_trace(view, result.trace)
        assert report.strongly_consistent, report.detail
