"""Unit tests for the staleness (freshness-lag) profile."""

import pytest

from repro.consistency import staleness_profile
from repro.core.batch import DeferredECA
from repro.core.eca import ECA
from repro.core.recompute import RecomputeView
from repro.core.stored_copies import StoredCopies
from repro.relational.engine import evaluate_view
from repro.simulation.driver import REFRESH, Simulation
from repro.simulation.schedules import BestCaseSchedule
from repro.source.memory import MemorySource
from repro.source.updates import insert


@pytest.fixture
def setup(two_rel_schemas, view_w):
    def build(factory, workload):
        source = MemorySource(two_rel_schemas, {"r1": [(1, 2)]})
        warehouse = factory(view_w, evaluate_view(view_w, source.snapshot()))
        if isinstance(warehouse, StoredCopies):
            warehouse.copies = {
                name: bag for name, bag in source.snapshot().items()
            }
        trace = Simulation(source, warehouse, workload).run(BestCaseSchedule())
        return staleness_profile(view_w, trace)

    return build


WORKLOAD = [insert("r2", (2, i)) for i in range(6)]


class TestProfiles:
    def test_stored_copies_is_nearly_always_fresh(self, setup):
        profile = setup(lambda v, iv: StoredCopies(v, iv), list(WORKLOAD))
        # Lag exists only between S_up and the W_up that applies it.
        assert profile.max_lag <= 1
        assert profile.unmatched == 0

    def test_eca_under_quiet_schedule_is_fresh(self, setup):
        profile = setup(lambda v, iv: ECA(v, iv), list(WORKLOAD))
        assert profile.max_lag <= 1
        assert profile.mean_lag < 1.0

    def test_infrequent_recompute_is_stale(self, setup):
        fresh = setup(
            lambda v, iv: RecomputeView(v, iv, period=1), list(WORKLOAD)
        )
        stale = setup(
            lambda v, iv: RecomputeView(v, iv, period=6), list(WORKLOAD)
        )
        assert stale.mean_lag > fresh.mean_lag
        assert stale.max_lag >= 5  # the whole batch of updates behind

    def test_deferred_staleness_tracks_refresh_period(self, setup):
        rare = setup(
            lambda v, iv: DeferredECA(v, iv), list(WORKLOAD) + [REFRESH]
        )
        frequent_workload = []
        for index, update in enumerate(WORKLOAD):
            frequent_workload.append(update)
            if (index + 1) % 2 == 0:
                frequent_workload.append(REFRESH)
        frequent = setup(lambda v, iv: DeferredECA(v, iv), frequent_workload)
        assert frequent.mean_lag < rare.mean_lag

    def test_in_sync_fraction_bounds(self, setup):
        profile = setup(lambda v, iv: ECA(v, iv), list(WORKLOAD))
        assert 0.0 <= profile.in_sync_fraction <= 1.0

    def test_empty_run(self, setup):
        profile = setup(lambda v, iv: ECA(v, iv), [])
        assert profile.in_sync_fraction == 1.0
        assert profile.mean_lag == 0.0
        assert profile.max_lag == 0

    def test_repr(self, setup):
        profile = setup(lambda v, iv: ECA(v, iv), list(WORKLOAD))
        assert "in_sync" in repr(profile)

    def test_anomalous_run_reports_unmatched(self, view_w, two_rel_schemas):
        from repro.core.basic import BasicAlgorithm
        from repro.simulation.schedules import WorstCaseSchedule

        source = MemorySource(two_rel_schemas, {"r1": [(1, 2)]})
        warehouse = BasicAlgorithm(view_w)
        workload = [insert("r2", (2, 3)), insert("r1", (4, 2))]
        trace = Simulation(source, warehouse, workload).run(WorstCaseSchedule())
        profile = staleness_profile(view_w, trace)
        assert profile.unmatched > 0  # the ([1],[4],[4]) state matches nothing


class TestCrashedRuns:
    def test_w_crash_records_no_view_state_so_it_advances_none(self, tmp_path):
        """The recorder appends no ``ws_j`` for ``W_crash``; the profile
        used to advance past it anyway and read one state ahead, which
        the end of the list then hid (``..., 12, 0, 0``)."""
        from repro.costmodel.parameters import PaperParameters
        from repro.runtime import CrashPolicy, run_concurrent
        from repro.simulation.trace import W_CRASH
        from repro.workloads.example6 import build_example6

        setup = build_example6(PaperParameters(cardinality=40), k=12, seed=1)
        source = MemorySource(setup.schemas, setup.initial)
        warehouse = ECA(setup.view, evaluate_view(setup.view, source.snapshot()))
        result = run_concurrent(
            source,
            warehouse,
            setup.workload,
            seed=0,
            max_burst=4,
            wal_dir=str(tmp_path),
            crash=CrashPolicy("mid-uqs", skip=3, max_crashes=1),
        )
        trace = result.trace
        kinds = [event.kind for event in trace.events]
        assert kinds.count(W_CRASH) == 1
        assert sum(kind.startswith("W_") for kind in kinds) == 26
        assert len(trace.view_states) == 26
        profile = staleness_profile(setup.view, trace)
        assert len(profile.lags) == 52 and profile.unmatched == 0
        assert profile.in_sync_fraction == 1 / 52
        assert round(profile.in_sync_fraction, 2) == 0.02
        assert profile.lags[-3:] == [12, 12, 0]
