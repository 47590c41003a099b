"""One history recorder: the kernel and the runtime record through it,
and the catalog keeps no history of its own.

- the catalog's memory does not grow with the event count, and a
  ``record_trace=False`` run never copies a view;
- :func:`project_view` reproduces, state for state, the per-view history
  the catalog used to keep, classifies each view on its own timeline
  (verdicts pinned), and keeps doing so across a mid-UQS crash;
- a concurrent run and its replay on the synchronous kernel describe the
  same history, action log included;
- the recorder snapshots each source once (``ss_0``) however long the
  run: later source states are folded from the update log;
- a view nobody records keeps no change journal, and a recorded one
  holds at most the changes of the event in progress.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.consistency import check_trace
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.lazy import LCA
from repro.kernel.sync import SyncKernel
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import CrashPolicy, run_concurrent
from repro.simulation.driver import Simulation
from repro.simulation.schedules import BestCaseSchedule, RandomSchedule
from repro.simulation.trace import C_REF, project_view
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}

ACCOUNTS = RelationSchema("accounts", ("acct", "owner"), key=("acct",))
MOVES = RelationSchema("moves", ("move_id", "acct", "amount"), key=("move_id",))
LEDGER_INITIAL = {
    "accounts": [(1, 10), (2, 20)],
    "moves": [(100, 1, 500), (101, 2, 40)],
}


def fanin(n_views=4):
    """One source, ``n_views`` ECA views over the same join."""
    source = MemorySource(SCHEMAS, INITIAL)
    algorithms = {}
    for index in range(n_views):
        view = View.natural_join(f"V{index}", SCHEMAS, ["W", "Y"])
        algorithms[f"V{index}"] = ECA(view, evaluate_view(view, source.snapshot()))
    return source, WarehouseCatalog(algorithms)


def ledger_catalog(source):
    """The three-family catalog of ``test_warehouse_catalog``."""
    ledger = View.natural_join(
        "ledger", [ACCOUNTS, MOVES], ["move_id", "accounts.acct", "owner", "amount"]
    )
    big = View.natural_join(
        "big",
        [ACCOUNTS, MOVES],
        ["owner", "amount"],
        Comparison(Attr("amount"), ">", Const(100)),
    )
    audit = View.natural_join("audit", [ACCOUNTS, MOVES], ["move_id", "owner"])
    state = source.snapshot()
    return WarehouseCatalog(
        {
            "ledger": ECAKey(ledger, evaluate_view(ledger, state)),
            "big": ECA(big, evaluate_view(big, state)),
            "audit": LCA(audit, evaluate_view(audit, state)),
        }
    )


def container_sizes(catalog):
    """Sizes of every container the catalog itself holds (``owners`` is
    bound once by whichever kernel runs it)."""
    return {
        name: len(value)
        for name, value in vars(catalog).items()
        if isinstance(value, (list, dict, set, deque)) and name != "owners"
    }


def count_view_copies(catalog):
    """Wrap every member's ``view_state`` with a call counter."""
    calls = {name: 0 for name in catalog.algorithms}

    def counted(name, original):
        def view_state():
            calls[name] += 1
            return original()

        return view_state

    for name, algorithm in catalog.algorithms.items():
        algorithm.view_state = counted(name, algorithm.view_state)
    return calls


#: 24 updates x (S_up + W_up + 4 S_qu + 4 W_ans) = 240 events on ``fanin(4)``.
WORKLOAD = random_workload(SCHEMAS, 24, seed=3, initial=INITIAL, respect_keys=True)


#: Everything the catalog holds, however many events ran: the member
#: table and one interest entry per relation.
BOUNDED = {"algorithms": 4, "views": 4, "_members": 4, "_interested": 2}


class TestCatalogKeepsNoHistory:
    def test_sync_kernel_catalog_state_does_not_grow_with_events(self):
        source, catalog = fanin()
        calls = count_view_copies(catalog)
        kernel = SyncKernel({"source": source}, catalog, list(WORKLOAD))
        trace = kernel.run(RandomSchedule(3))
        assert len(trace.events) >= 200
        assert catalog.is_quiescent()
        assert container_sizes(catalog) == BOUNDED
        assert catalog.pending_query_ids() == []
        # The recorder asks for a ws_j after every warehouse event; the
        # catalog reads a member once, for ws_0, and every later ws_j is
        # the members' journaled changes.
        for name in catalog.algorithms:
            assert calls[name] == 1, name

    def test_untraced_runtime_copies_no_view(self):
        source, catalog = fanin()
        calls = count_view_copies(catalog)
        result = run_concurrent(
            source, catalog, list(WORKLOAD), seed=1, record_trace=False
        )
        assert len(result.action_log) >= 200
        assert result.trace.events == []
        assert result.trace.view_states == [] and result.trace.source_states == []
        assert container_sizes(catalog) == BOUNDED
        assert catalog.pending_query_ids() == []
        # Only ``RuntimeResult.final_view`` reads the views, once.
        assert set(calls.values()) == {1}
        # Untraced, the run still logs every action it took.
        traced_source, traced_catalog = fanin()
        traced = run_concurrent(traced_source, traced_catalog, list(WORKLOAD), seed=1)
        assert result.action_log == traced.action_log
        assert len(traced.trace.events) == len(traced.action_log)


#: seed -> level of ``big`` on the ``test_warehouse_catalog`` scenario (12
#: key-respecting updates, ``RandomSchedule(seed)``), as the parent's
#: catalog-held ``per_view_trace`` classified it.  ``ledger`` (ECA-Key)
#: is strongly consistent and ``audit`` (LCA) complete on every seed.
PINNED_BIG = {
    0: "complete",
    1: "complete",
    2: "complete",
    3: "complete",
    4: "complete",
    5: "strongly consistent",
}


class TestProjection:
    @pytest.mark.parametrize("seed", sorted(PINNED_BIG))
    def test_projection_is_the_history_the_catalog_used_to_keep(self, seed):
        """The deleted ``WarehouseCatalog._history`` was one
        ``member.view_state()`` per member after every catalog event."""
        source = MemorySource([ACCOUNTS, MOVES], LEDGER_INITIAL)
        catalog = ledger_catalog(source)
        workload = random_workload(
            [ACCOUNTS, MOVES], 12, seed=seed, initial=LEDGER_INITIAL,
            respect_keys=True, domain=9,
        )
        simulation = Simulation(source, catalog, workload)
        kept = {name: [catalog.state_of(name)] for name in catalog.algorithms}
        schedule = RandomSchedule(seed)
        while not simulation.is_done():
            states = len(simulation.trace.view_states)
            simulation.step(schedule.choose(simulation.available_actions()))
            if len(simulation.trace.view_states) > states:
                for name in kept:
                    kept[name].append(catalog.state_of(name))
        trace = simulation.trace
        levels = {}
        for name, algorithm in catalog.algorithms.items():
            solo = project_view(trace, name)
            assert solo.view_states == kept[name], name
            assert solo.events == trace.events
            assert solo.source_states == trace.source_states
            levels[name] = check_trace(algorithm.view, solo).level()
        assert levels == {
            "ledger": "strongly consistent",
            "big": PINNED_BIG[seed],
            "audit": "complete",
        }

    def test_projection_does_not_alias_the_tagged_trace(self):
        source, catalog = fanin(2)
        trace = Simulation(source, catalog, list(WORKLOAD)).run(BestCaseSchedule())
        events, states = list(trace.events), list(trace.view_states)
        solo = project_view(trace, "V0")
        solo.events.clear()
        solo.view_states.clear()
        assert trace.events == events and trace.view_states == states
        assert project_view(trace, "no-such-view").view_states == [
            type(states[0])() for _ in states
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_per_view_verdicts_span_a_mid_uqs_crash(self, seed, tmp_path):
        """The catalog-held history restarted at recovery; the projected
        one covers the whole run, ``W_crash`` / ``W_rec`` included."""
        source, catalog = fanin(3)
        views = {name: algo.view for name, algo in catalog.algorithms.items()}
        workload = random_workload(
            SCHEMAS, 10, seed=seed, initial=INITIAL, respect_keys=True
        )
        result = run_concurrent(
            source,
            catalog,
            workload,
            seed=seed,
            max_burst=4,
            wal_dir=str(tmp_path),
            snapshot_every=4,
            crash=CrashPolicy(mode="mid-uqs", seed=seed),
        )
        assert len(result.crashes) == 1, "crash policy never fired"
        correct = result.trace.final_source_state
        for name, view in views.items():
            solo = project_view(result.trace, name)
            assert len(solo.view_states) == len(result.trace.view_states)
            report = check_trace(view, solo)
            assert report.strongly_consistent, (name, report.detail)
            assert solo.final_view_state == evaluate_view(view, correct)


class CountingSource(MemorySource):
    """Counts the deep copies ``snapshot()`` hands out."""

    snapshots = 0

    def snapshot(self):
        self.snapshots += 1
        return super().snapshot()


class TestSourcesAreSnapshottedOnce:
    """``ss_0`` is the only copy taken from a source; every later state
    is folded from the update log.  (The recorder used to take ``2N``
    snapshots up front and ``N + 1`` more per update.)"""

    @staticmethod
    def two_sources():
        sources, algorithms, workload = {}, {}, []
        for index, prefix in enumerate("ab"):
            schemas = [
                RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
                RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
            ]
            initial = {f"{prefix}r1": INITIAL["r1"], f"{prefix}r2": INITIAL["r2"]}
            source = CountingSource(schemas, initial)
            view = View.natural_join(f"V{prefix}", schemas, ["W", "Y"])
            algorithms[view.name] = ECA(view, evaluate_view(view, source.snapshot()))
            source.snapshots = 0
            sources[prefix] = source
            workload += random_workload(
                schemas, 10, seed=index, initial=initial, respect_keys=True
            )
        return sources, WarehouseCatalog(algorithms), workload

    def test_sync_kernel(self):
        sources, catalog, workload = self.two_sources()
        kernel = SyncKernel(sources, catalog, workload)
        trace = kernel.run(RandomSchedule(2))
        assert trace.update_count() == 20 == len(trace.source_states) - 1
        assert {name: s.snapshots for name, s in sources.items()} == {"a": 1, "b": 1}
        assert trace.final_source_state == {
            **sources["a"].snapshot(), **sources["b"].snapshot()
        }

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_runtime(self, record_trace):
        sources, catalog, workload = self.two_sources()
        result = run_concurrent(
            sources, catalog, workload, clients=1, seed=2, record_trace=record_trace
        )
        assert result.updates == 20
        assert {name: s.snapshots for name, s in sources.items()} == {"a": 1, "b": 1}
        if record_trace:
            assert result.per_source_states["a"][-1] == sources["a"].snapshot()
            assert result.per_source_states["b"][-1] == sources["b"].snapshot()


class TestSharedRecorder:
    """Both frontends write the trace through one ``HistoryRecorder``."""

    def test_sync_replay_describes_the_concurrent_run(self):
        workload = random_workload(
            SCHEMAS, 8, seed=5, initial=INITIAL, respect_keys=True
        )
        source, catalog = fanin(2)
        result = run_concurrent(
            {"src": source}, catalog, workload, clients=1, client_reads=2,
            seed=5, max_burst=3,
        )
        twin_source, twin = fanin(2)
        kernel = SyncKernel({"src": twin_source}, twin, list(workload))
        for entry in result.action_log:
            kernel.step("update" if entry.startswith("update:") else entry)
        assert kernel.is_done()
        assert kernel.trace.view_states == result.trace.view_states
        assert kernel.trace.source_states == result.trace.source_states
        assert kernel.per_source_states == result.per_source_states
        assert kernel.trace.describe() == result.trace.describe()
        assert kernel.action_log == result.action_log
        assert any(e.kind == C_REF for e in kernel.trace.events)


class TestJournalsStayBounded:
    def test_an_untraced_run_opens_no_journal(self):
        source, catalog = fanin()
        workload = random_workload(
            SCHEMAS, 1000, seed=7, initial=INITIAL, respect_keys=True
        )
        initial = {name: m.mv.as_bag() for name, m in catalog.algorithms.items()}
        result = run_concurrent(source, catalog, workload, seed=1, record_trace=False)
        assert len(result.action_log) >= 10_000
        for name, member in catalog.algorithms.items():
            assert member.mv.as_bag() != initial[name], name
            # No recorder, no WAL and no cache: no reader has a journal.
            assert member.mv._journals == {}, name

    def test_every_recorded_event_drains_the_journal(self):
        source, catalog = fanin()
        initial = {name: m.mv.as_bag() for name, m in catalog.algorithms.items()}
        kernel = SyncKernel({"source": source}, catalog, list(WORKLOAD))
        schedule = RandomSchedule(3)
        while not kernel.is_done():
            kernel.step(schedule.choose(kernel.available_actions()))
            for name, member in catalog.algorithms.items():
                assert member.mv._journal == [], name
        for name, member in catalog.algorithms.items():
            assert member.mv.as_bag() != initial[name], name
