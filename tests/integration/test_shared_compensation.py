"""Shared-compensation conformance: sharing changes cost, never state.

The acceptance bar for ``--share-compensation on``
(``docs/MULTIVIEW.md``): across the conformance matrix — synchronous
kernel under deterministic schedules, the asyncio runtime, WAL/codec
recovery, and the sharded warehouse — every member view walks a state
sequence byte-identical to the independent catalog's, while overlapping
views cost a fraction of the source round trips.

The fan-in topology here is the sharing-heavy extreme: N views with the
same structure (distinct names) over one source, so every update makes
all N members emit signature-equal compensating queries and the planner
collapses each event's fan-out to a single wire query.
"""

from __future__ import annotations

import pytest

from repro.consistency import check_trace
from repro.core.registry import create_algorithm
from repro.durability import (
    RECV,
    WriteAheadLog,
    dumps_algorithm,
    encode_value,
    loads_algorithm,
    recover,
)
from repro.durability.codec import encode_text
from repro.kernel import replay_concurrent
from repro.kernel.sync import SyncKernel
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import CrashPolicy, run_concurrent
from repro.simulation.driver import Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
    EagerSourceSchedule,
    RandomSchedule,
    WorstCaseSchedule,
)
from repro.simulation.trace import project_view
from repro.source.memory import MemorySource
from repro.source.updates import insert
from repro.warehouse.catalog import WarehouseCatalog

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}

WORKLOAD = [
    insert("r1", (10, 2)),
    insert("r2", (2, 20)),
    insert("r1", (11, 3)),
    insert("r1", (12, 2)),
    insert("r2", (3, 21)),
    insert("r1", (13, 9)),
    insert("r2", (9, 22)),
    insert("r1", (14, 2)),
]


def fanin_setup(n_views=4, share=False):
    """One source, ``n_views`` structurally identical join views."""
    source = MemorySource(SCHEMAS, INITIAL)
    algorithms = {}
    for index in range(n_views):
        view = View.natural_join(f"V{index}", SCHEMAS, ["W", "Y"])
        algorithms[f"V{index}"] = create_algorithm(
            "eca", view, evaluate_view(view, source.snapshot())
        )
    return {"source": source}, WarehouseCatalog(
        algorithms, share_compensation=share
    )


def dedup(states):
    """Collapse consecutive duplicates: a view's *own* event timeline."""
    out = []
    for state in states:
        if not out or state != out[-1]:
            out.append(state)
    return out


SCHEDULES = {
    "best-case": BestCaseSchedule,
    "worst-case": WorstCaseSchedule,
    "eager-source": EagerSourceSchedule,
}


class TestSyncKernelByteIdentity:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("n_views", [1, 2, 4])
    def test_per_view_state_sequences_are_byte_equal(self, schedule, n_views):
        histories = {}
        for share in (False, True):
            sources, catalog = fanin_setup(n_views, share=share)
            trace = Simulation(sources["source"], catalog, list(WORKLOAD)).run(
                SCHEDULES[schedule]()
            )
            assert catalog.is_quiescent()
            histories[share] = {
                name: dedup(project_view(trace, name).view_states)
                for name in catalog.algorithms
            }
        assert histories[False].keys() == histories[True].keys()
        for name in histories[False]:
            independent, shared = histories[False][name], histories[True][name]
            assert independent == shared, name
            # Byte-equal, not merely bag-equal: the canonical codec
            # encodings of every state in the sequence match.
            assert [encode_text(s) for s in independent] == [
                encode_text(s) for s in shared
            ], name

    def test_sharing_cuts_kernel_round_trips(self):
        sent = {}
        for share in (False, True):
            sources, catalog = fanin_setup(4, share=share)
            kernel = Simulation(sources["source"], catalog, list(WORKLOAD))
            kernel.run(BestCaseSchedule())
            sent[share] = catalog.shared_query_stats()[0]
        assert sent[False] >= 2 * sent[True]


FAN_INS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def fan_in():
    """Round trips, absorbed queries, M, B and final member states of
    every fan-in with sharing off and on, under the worst-case schedule
    (every update before any answer: the deeply compensated regime)."""
    from repro.costmodel.counters import CostRecorder

    runs = {}
    for n_views in FAN_INS:
        for share in (False, True):
            sources, catalog = fanin_setup(n_views, share=share)
            recorder = CostRecorder()
            Simulation(sources["source"], catalog, WORKLOAD[:6], recorder).run(
                WorstCaseSchedule()
            )
            issued, saved = catalog.shared_query_stats()
            runs[n_views, share] = {
                "round trips": issued,
                "saved": saved,
                "M": recorder.messages,
                "B": recorder.bytes,
                "states": {name: catalog.state_of(name) for name in catalog.algorithms},
            }
    return runs


class TestFanIn:
    def test_sharing_halves_round_trips_at_16_views_and_moves_no_state(
        self, fan_in
    ):
        for n_views in FAN_INS:
            off, on = fan_in[n_views, False], fan_in[n_views, True]
            assert off["states"] == on["states"], n_views
            # Independent members pay one round trip each; sharing pays
            # for the distinct expressions only.
            assert off["round trips"] == n_views * fan_in[1, False]["round trips"]
            if n_views == 1:
                assert off["round trips"] == on["round trips"]
            else:
                assert on["saved"] > 0
        off, on = fan_in[16, False], fan_in[16, True]
        assert off["round trips"] >= 2 * on["round trips"]
        # M and B fall the same way (B only where answers carry tuples).
        assert off["M"] >= 2 * on["M"]
        assert off["B"] >= on["B"]

    def test_absorbed_queries_grow_with_fan_in_while_issued_stays_flat(
        self, fan_in
    ):
        issued = {fan_in[n, True]["round trips"] for n in FAN_INS}
        assert len(issued) == 1
        for n_views in FAN_INS:
            assert fan_in[n_views, True]["saved"] == (n_views - 1) * fan_in[
                1, True
            ]["round trips"]


class TestRuntimeConformance:
    @pytest.mark.parametrize("seed", range(3))
    def test_async_runs_converge_to_the_independent_state(self, seed):
        finals = {}
        for share in (False, True):
            sources, catalog = fanin_setup(4, share=share)
            result = run_concurrent(
                sources, catalog, {"source": list(WORKLOAD)}, seed=seed,
                max_burst=4,
            )
            finals[share] = {
                name: catalog.state_of(name) for name in catalog.algorithms
            }
            # Every member is strongly consistent on its own timeline,
            # sharing or not.
            for name, algorithm in catalog.algorithms.items():
                solo = project_view(result.trace, name)
                report = check_trace(algorithm.view, solo)
                assert report.strongly_consistent, (share, name, report.detail)
        assert finals[False] == finals[True]

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_action_log_replays_on_the_sync_kernel(self, seed):
        sources, catalog = fanin_setup(4, share=True)
        result = run_concurrent(
            sources, catalog, {"source": list(WORKLOAD)}, seed=seed,
            max_burst=4,
        )
        twin_sources, twin = fanin_setup(4, share=True)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin, {"source": list(WORKLOAD)}
        )
        assert [(e.kind, e.detail) for e in result.trace.events] == [
            (e.kind, e.detail) for e in kernel.trace.events
        ]
        assert result.trace.view_states == kernel.trace.view_states
        assert result.final_view == kernel.algorithm.view_state()

    def test_sharing_at_least_halves_source_round_trips(self):
        sent = {}
        saved = {}
        for share in (False, True):
            sources, catalog = fanin_setup(4, share=share)
            result = run_concurrent(
                sources, catalog, {"source": list(WORKLOAD)}, seed=1,
                max_burst=4,
            )
            sent[share] = result.metrics["warehouse"].sent
            saved[share] = catalog.shared_query_stats()[1]
        assert saved[False] == 0
        assert saved[True] > 0
        assert sent[False] >= 2 * sent[True]

    def test_final_states_match_the_source_oracle(self):
        sources, catalog = fanin_setup(3, share=True)
        run_concurrent(sources, catalog, {"source": list(WORKLOAD)}, seed=5)
        final = sources["source"].snapshot()
        for name, algorithm in catalog.algorithms.items():
            assert catalog.state_of(name) == evaluate_view(
                algorithm.view, final
            ), name


class TestOneConstructionPerClass:
    def test_a_class_is_scoped_to_the_catalog_built_last(self):
        """A class is one algorithm, and ``plan_shards`` places it whole:
        the per-shard catalog built after the one it splits holds that
        same object, on one shard, for every member."""
        from repro.kernel.dispatch import relation_owners
        from repro.sharding import plan_shards

        sources, catalog = fanin_setup(6, share=True)
        ((algorithm, members),) = catalog.classes()
        plan = plan_shards(catalog, 2, "hash", relation_owners(sources))
        (shard,) = plan.shard_ids
        assert set(plan.assignment.values()) == {shard}
        part = plan.algorithms[shard]
        assert part is not catalog
        assert part.classes() == [(algorithm, members)]
        assert all(part.algorithms[name] is algorithm for name in members)


class TestDisjointViewsUnaffected:
    """Sharing is a no-op when member queries never coincide."""

    def build(self, share):
        sources = {}
        algorithms = {}
        workloads = {}
        for index in range(2):
            prefix = f"s{index}"
            schemas = [
                RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
                RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
            ]
            initial = {
                f"{prefix}r1": [(1, 2), (2, 3)],
                f"{prefix}r2": [(2, 5), (3, 6)],
            }
            sources[prefix] = MemorySource(schemas, initial)
            view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
            algorithms[f"V{index}"] = create_algorithm(
                "eca", view, evaluate_view(view, sources[prefix].snapshot())
            )
            workloads[prefix] = [
                insert(f"{prefix}r1", (10 + index, 2)),
                insert(f"{prefix}r2", (2, 20 + index)),
                insert(f"{prefix}r1", (12 + index, 3)),
            ]
        return sources, WarehouseCatalog(algorithms, share_compensation=share), workloads

    @pytest.mark.parametrize("seed", range(2))
    def test_share_on_is_byte_identical_to_share_off(self, seed):
        runs = {}
        catalogs = {}
        for share in (False, True):
            sources, catalog, workloads = self.build(share)
            runs[share] = run_concurrent(
                sources, catalog, workloads, seed=seed, max_burst=4
            )
            catalogs[share] = catalog
        assert runs[False].action_log == runs[True].action_log
        assert [(e.kind, e.detail) for e in runs[False].trace.events] == [
            (e.kind, e.detail) for e in runs[True].trace.events
        ]
        assert runs[False].trace.view_states == runs[True].trace.view_states
        assert runs[False].final_view == runs[True].final_view
        # No coincident queries, so nothing was (or could be) absorbed.
        assert catalogs[True].shared_query_stats()[1] == 0


class TestDurability:
    def mid_protocol_catalog(self):
        sources, catalog = fanin_setup(3, share=True)
        catalog.bind_owners({"r1": "source", "r2": "source"})
        update = insert("r1", (7, 2))
        sources["source"].apply_update(update)
        routed = catalog.on_update("source", UpdateNotification(update, 1))
        assert len(routed) == 1  # three members, one shared wire query
        return sources, catalog, routed

    def test_codec_round_trip_preserves_shared_routes(self):
        sources, catalog, routed = self.mid_protocol_catalog()
        text = dumps_algorithm(catalog)
        twin = loads_algorithm(text)
        assert dumps_algorithm(twin) == text
        assert twin.share_compensation
        assert twin.pending_query_ids() == catalog.pending_query_ids()
        assert list(twin.pending_requests()) == list(catalog.pending_requests())
        # The restored route table fans the late answer to every member.
        global_id = routed[0][1].query_id
        answer = routed[0][1].query.evaluate(sources["source"].snapshot())
        twin.on_answer("source", QueryAnswer(global_id, answer))
        states = {name: twin.state_of(name) for name in twin.algorithms}
        assert len(set(map(encode_text, states.values()))) == 1

    @pytest.mark.parametrize("share", [False, True])
    def test_crash_recovery_converges_like_a_crash_free_run(
        self, share, tmp_path
    ):
        sources, catalog = fanin_setup(3, share=share)
        result = run_concurrent(
            sources,
            catalog,
            {"source": list(WORKLOAD)},
            seed=4,
            wal_dir=str(tmp_path),
            snapshot_every=4,
            crash=CrashPolicy(mode="mid-uqs", seed=4),
        )
        assert result.crashes, "the crash policy must actually fire"
        clean_sources, clean = fanin_setup(3, share=False)
        clean_run = run_concurrent(
            clean_sources, clean, {"source": list(WORKLOAD)}, seed=4
        )
        assert result.final_view == clean_run.final_view


    def test_a_recovered_catalog_counts_what_its_uncrashed_twin_counts(
        self, tmp_path
    ):
        """Regression: the planner's ``issued`` / ``saved`` counts were
        not persisted, so a recovered catalog restarted them at its
        snapshot.  Recovered at any LSN, the catalog reports what the
        live catalog — its uncrashed twin — reports at that LSN."""
        sources, catalog = fanin_setup(3, share=True)
        kernel = SyncKernel(sources, catalog, list(WORKLOAD))
        schedule = RandomSchedule(4, weights={"update": 2.0})
        wal = WriteAheadLog(str(tmp_path), snapshot_every=3)
        wal.snapshot(catalog)
        while not kernel.is_done():
            action = schedule.choose(kernel.available_actions())
            if action.startswith("warehouse:"):
                name = action.split(":", 1)[1]
                message = encode_value(kernel.inbound[name].peek())
                origin = name if name in sources else None
                wal.append(RECV, {"channel": name, "origin": origin, "message": message})
            kernel.step(action)
            wal.maybe_snapshot(catalog)
            recovered = recover(str(tmp_path)).algorithm
            assert recovered.shared_query_stats() == catalog.shared_query_stats()
        wal.close()
        assert catalog.shared_query_stats()[1] > 0, "the run must share a query"


class TestSharded:
    @pytest.mark.parametrize("share", [False, True])
    def test_sharded_run_matches_the_unsharded_catalog(self, share):
        sources, catalog = fanin_setup(4, share=share)
        sharded = run_concurrent(
            sources,
            catalog,
            {"source": list(WORKLOAD)},
            seed=2,
            shards=2,
        )
        twin_sources, twin = fanin_setup(4, share=share)
        unsharded = run_concurrent(
            twin_sources, twin, {"source": list(WORKLOAD)}, seed=2
        )
        assert sharded.final_view == unsharded.final_view
        # Per-view timelines agree between the merged sharded trace and
        # the unsharded twin's.
        for name in twin.algorithms:
            assert dedup(project_view(sharded.trace, name).view_states) == dedup(
                project_view(unsharded.trace, name).view_states
            ), name

    def test_sharing_is_scoped_per_shard(self):
        sources, catalog = fanin_setup(4, share=True)
        result = run_concurrent(
            sources, catalog, {"source": list(WORKLOAD)}, seed=3, shards=2
        )
        shard_catalogs = result.shard_info["algorithms"]
        assert all(c.share_compensation for c in shard_catalogs.values())
        total_saved = sum(
            c.shared_query_stats()[1] for c in shard_catalogs.values()
        )
        assert total_saved > 0

    def test_a_relevant_update_costs_three_messages_per_interested_shard(self):
        """M on the sharded fan-in (Section 6.1's first cost axis): per
        interested shard the notification, one shared query straight to
        the source, and the answer.  No leg exists only to forward a
        message or to renumber a query.  The fan-in is one class, which
        lives on one shard, so M is the paper's 3 per update."""
        sources, catalog = fanin_setup(4, share=True)
        result = run_concurrent(
            sources, catalog, {"source": list(WORKLOAD)}, seed=3, shards=2
        )
        interested = len(result.shard_info["shard_ids"])
        assert interested == 1
        messages = sum(stats.sent for stats in result.channel_stats.values())
        assert messages == len(WORKLOAD) * 3 * interested == len(WORKLOAD) * 3
