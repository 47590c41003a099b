"""Integration: one warehouse, many views, one notification stream."""

import pytest

from repro.consistency import check_trace, staleness_profile
from repro.core.batch import DeferredECA
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.lazy import LCA
from repro.errors import ProtocolError
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.driver import REFRESH, Simulation
from repro.simulation.schedules import BestCaseSchedule, RandomSchedule
from repro.simulation.trace import project_view
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

ACCOUNTS = RelationSchema("accounts", ("acct", "owner"), key=("acct",))
MOVES = RelationSchema("moves", ("move_id", "acct", "amount"), key=("move_id",))
INITIAL = {
    "accounts": [(1, 10), (2, 20)],
    "moves": [(100, 1, 500), (101, 2, 40)],
}


def build_catalog(source):
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


class TestCatalog:
    def test_requires_at_least_one_view(self):
        with pytest.raises(ProtocolError):
            WarehouseCatalog({})

    def test_unknown_answer_rejected(self):
        from repro.messaging.messages import QueryAnswer
        from repro.relational.bag import SignedBag

        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        catalog = build_catalog(source)
        with pytest.raises(ProtocolError):
            catalog.on_answer(None, QueryAnswer(99, SignedBag()))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_view_strongly_consistent_on_its_own_timeline(self, seed):
        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        catalog = build_catalog(source)
        workload = random_workload(
            [ACCOUNTS, MOVES], 12, seed=seed, initial=INITIAL,
            respect_keys=True, domain=9,
        )
        trace = Simulation(source, catalog, workload).run(RandomSchedule(seed))
        assert catalog.is_quiescent()
        for name, algorithm in catalog.algorithms.items():
            solo = project_view(trace, name)
            report = check_trace(algorithm.view, solo)
            assert report.strongly_consistent, (seed, name, report.detail)

    def test_joint_state_is_convergent_but_not_always_consistent(self):
        """The mutual-consistency finding: independently maintained views
        advance at different rates, so the tagged union may momentarily
        mix different source states — Section 7's per-view guarantee does
        not compose into a joint one (the Strobe paper's 'global
        consistency' problem)."""
        saw_joint_violation = False
        for seed in range(10):
            source = MemorySource([ACCOUNTS, MOVES], INITIAL)
            catalog = build_catalog(source)
            workload = random_workload(
                [ACCOUNTS, MOVES], 12, seed=seed, initial=INITIAL,
                respect_keys=True, domain=9,
            )
            trace = Simulation(source, catalog, workload).run(RandomSchedule(seed))
            report = check_trace(catalog, trace)
            assert report.convergent, (seed, report.detail)
            if not report.consistent:
                saw_joint_violation = True
        assert saw_joint_violation

    def test_per_view_final_states_match_oracles(self):
        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        catalog = build_catalog(source)
        workload = random_workload(
            [ACCOUNTS, MOVES], 10, seed=3, initial=INITIAL,
            respect_keys=True, domain=9,
        )
        Simulation(source, catalog, workload).run(RandomSchedule(7))
        final = source.snapshot()
        for name, algorithm in catalog.algorithms.items():
            assert catalog.state_of(name) == evaluate_view(algorithm.view, final), name

    def test_mixed_timing_policies(self):
        """An immediate view and a deferred view share the stream; the
        deferred one flushes only at REFRESH markers."""
        ledger = View.natural_join(
            "ledger", [ACCOUNTS, MOVES], ["move_id", "accounts.acct", "owner", "amount"]
        )
        audit = View.natural_join("audit", [ACCOUNTS, MOVES], ["move_id", "owner"])
        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        state = source.snapshot()
        catalog = WarehouseCatalog(
            {
                "ledger": ECA(ledger, evaluate_view(ledger, state)),
                "audit": DeferredECA(audit, evaluate_view(audit, state)),
            }
        )
        updates = random_workload(
            [ACCOUNTS, MOVES], 8, seed=5, initial=INITIAL,
            respect_keys=True, domain=9,
        )
        workload = updates[:4] + [REFRESH] + updates[4:] + [REFRESH]
        trace = Simulation(source, catalog, workload).run(BestCaseSchedule())
        # Each view is correct on its own timeline...
        for name, algorithm in catalog.algorithms.items():
            solo = project_view(trace, name)
            assert check_trace(algorithm.view, solo).strongly_consistent, name
        # ...and the deferred view lags more than the immediate one.
        ledger_lag = staleness_profile(
            catalog.algorithms["ledger"].view,
            project_view(trace, "ledger"),
        ).mean_lag
        audit_lag = staleness_profile(
            catalog.algorithms["audit"].view,
            project_view(trace, "audit"),
        ).mean_lag
        assert audit_lag > ledger_lag

    def test_view_states_are_tagged(self):
        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        catalog = build_catalog(source)
        tags = {row[0] for row, _ in catalog.view_state().items()}
        assert tags == {"ledger", "big", "audit"}

    def test_repr_lists_views(self):
        source = MemorySource([ACCOUNTS, MOVES], INITIAL)
        text = repr(build_catalog(source))
        assert "ledger:eca-key" in text
        assert "audit:lca" in text
