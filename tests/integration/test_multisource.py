"""Integration: the multi-source open problem of Section 7, demonstrated.

A view over relations at two autonomous sources.  The naive transplant of
incremental maintenance (with query fragmentation) is anomalous — its
fragments read different global states — while stored copies remain
cut-consistent because they never query the sources.
"""

import pytest

from repro.consistency import check_cuts, check_trace
from repro.core.registry import create_algorithm
from repro.kernel import REFRESH, SyncKernel
from repro.multisource import (
    FragmentingIncremental,
    MultiSourceStoredCopies,
    fragment_query,
)
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.simulation.trace import C_REF, W_REF
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
OWNERS = {"r1": "A", "r2": "B", "r3": "B"}
INITIAL = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (5, 9)]}


def chain_view():
    return View.natural_join("V", [R1, R2, R3], ["W", "Z"])


def build(kind):
    view = chain_view()
    a = MemorySource([R1], {"r1": INITIAL["r1"]})
    b = MemorySource([R2, R3], {"r2": INITIAL["r2"], "r3": INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot()}
    initial_view = evaluate_view(view, merged)
    if kind == "naive":
        algorithm = FragmentingIncremental(view, OWNERS, initial_view)
    else:
        algorithm = MultiSourceStoredCopies(view, OWNERS, initial_view, merged)
    return view, {"A": a, "B": b}, algorithm


class TestFragmentation:
    def test_fragments_grouped_by_owner(self):
        view = chain_view()
        query = view.substitute("r2", SignedTuple((2, 5)))
        plans = fragment_query(query, OWNERS)
        assert len(plans) == 1
        plan = plans[0]
        assert set(plan.fragments) == {"A", "B"}
        assert plan.spans_sources()

    def test_single_source_query_has_one_fragment(self):
        view = chain_view()
        query = view.substitute("r1", SignedTuple((9, 2)))
        plan = fragment_query(query, OWNERS)[0]
        assert set(plan.fragments) == {"B"}
        assert not plan.spans_sources()

    def test_fully_bound_term_is_local(self):
        view = chain_view()
        query = (
            view.substitute("r1", SignedTuple((9, 2)))
            .substitute("r2", SignedTuple((2, 5)))
            .substitute("r3", SignedTuple((5, 0)))
        )
        plan = fragment_query(query, OWNERS)[0]
        assert plan.is_local()

    def test_reassembly_matches_direct_evaluation(self):
        """Fragment answers computed on a *frozen* state reassemble to
        exactly the whole term's value — fragmentation itself is sound;
        only the timing is not."""
        view = chain_view()
        state = {
            "r1": SignedBag.from_rows(INITIAL["r1"]),
            "r2": SignedBag.from_rows(INITIAL["r2"]),
            "r3": SignedBag.from_rows(INITIAL["r3"]),
        }
        for relation, row in (("r1", (7, 2)), ("r2", (2, 5)), ("r3", (5, 1))):
            query = view.substitute(relation, SignedTuple(row))
            for plan in fragment_query(query, OWNERS):
                answers = {
                    source: fragment.evaluate(state)
                    for source, fragment in plan.fragments.items()
                }
                assert plan.reassemble(answers) == plan.term.evaluate(state)

    def test_reassembly_with_negative_bound_tuple(self):
        view = chain_view()
        state = {
            "r1": SignedBag.from_rows(INITIAL["r1"]),
            "r2": SignedBag.from_rows(INITIAL["r2"]),
            "r3": SignedBag.from_rows(INITIAL["r3"]),
        }
        query = view.substitute("r2", SignedTuple((2, 5), -1))
        plan = fragment_query(query, OWNERS)[0]
        answers = {
            source: fragment.evaluate(state)
            for source, fragment in plan.fragments.items()
        }
        assert plan.reassemble(answers) == plan.term.evaluate(state)

    def test_missing_answer_rejected(self):
        from repro.errors import SchemaError

        view = chain_view()
        plan = fragment_query(view.substitute("r2", SignedTuple((2, 5))), OWNERS)[0]
        with pytest.raises(SchemaError):
            plan.reassemble({})

    def test_unowned_relation_rejected(self):
        from repro.errors import SchemaError

        view = chain_view()
        with pytest.raises(SchemaError):
            fragment_query(view.as_query(), {"r1": "A"})


class TestNaiveTransplantIsAnomalous:
    def test_convergence_violations_occur(self):
        failures = 0
        runs = 30
        for seed in range(runs):
            workload = random_workload([R1, R2, R3], 8, seed=seed, initial=INITIAL)
            view, sources, algorithm = build("naive")
            sim = SyncKernel(sources, algorithm, workload)
            sim.run(RandomSchedule(seed * 3 + 1))
            if not check_cuts(
                view, sim.per_source_states, sim.trace.view_states
            ).convergent:
                failures += 1
        assert failures > 0, (
            "the naive multi-source transplant should break on some "
            "interleaving — otherwise the Section 7 warning is vacuous"
        )

    def test_spanning_queries_are_the_culprit(self):
        view, sources, algorithm = build("naive")
        workload = random_workload([R1, R2, R3], 8, seed=2, initial=INITIAL)
        SyncKernel(sources, algorithm, workload).run(RandomSchedule(5))
        assert algorithm.spanning_queries > 0


class TestStoredCopiesAcrossSources:
    @pytest.mark.parametrize("seed", range(8))
    def test_cut_consistent_and_convergent(self, seed):
        workload = random_workload([R1, R2, R3], 8, seed=seed, initial=INITIAL)
        view, sources, algorithm = build("sc")
        sim = SyncKernel(sources, algorithm, workload)
        trace = sim.run(RandomSchedule(seed * 7 + 3))
        report = check_cuts(view, sim.per_source_states, trace.view_states)
        assert report.strongly_consistent, report.detail

    def test_refresh_markers_flow_through_the_client_channel(self):
        """REFRESH in a multi-source workload rides the implicit client
        channel: a ``C_ref`` request, a ``W_ref`` atomic event, and the
        run stays cut-consistent."""
        updates = random_workload([R1, R2, R3], 6, seed=3, initial=INITIAL)
        workload = list(updates[:3]) + [REFRESH] + list(updates[3:]) + [REFRESH]
        view, sources, algorithm = build("sc")
        sim = SyncKernel(sources, algorithm, workload)
        trace = sim.run(RandomSchedule(11))
        refreshes = [event for event in trace.events if event.kind == C_REF]
        assert [event.detail for event in refreshes] == [
            "client refresh #1",
            "client refresh #2",
        ]
        assert sum(1 for event in trace.events if event.kind == W_REF) == 2
        assert check_cuts(view, sim.per_source_states, trace.view_states).consistent

    def test_refresh_flushes_deferred_maintenance_across_sources(self):
        """Deferred maintenance in a multi-source topology: source A owns
        every view relation, B's presence forces the multi-source path, and
        only the client refresh makes the buffered updates visible."""

        class DrainSourcesFirst:
            # Deliver and answer everything on the source channels before
            # the warehouse reads the client refresh.
            def choose(self, available):
                for action in ("update", "warehouse:A", "answer:A"):
                    if action in available:
                        return action
                return available[0]

        pair_view = View.natural_join("V2", [R1, R2], ["W", "Y"])
        a = MemorySource([R1, R2], {"r1": INITIAL["r1"], "r2": INITIAL["r2"]})
        b = MemorySource([R3], {"r3": INITIAL["r3"]})
        stale_view = evaluate_view(pair_view, a.snapshot())
        algorithm = create_algorithm("deferred-eca", pair_view, stale_view)
        updates = random_workload(
            [R1, R2], 5, seed=7, initial={"r1": INITIAL["r1"], "r2": INITIAL["r2"]}
        )
        sim = SyncKernel(
            {"A": a, "B": b}, algorithm, list(updates) + [REFRESH]
        )
        trace = sim.run(DrainSourcesFirst())
        # One view state is recorded per atomic warehouse event; all of
        # them before the refresh still show the stale initial view ...
        warehouse_events = [
            event for event in trace.events if event.kind.startswith("W_")
        ]
        kinds = [event.kind for event in warehouse_events]
        assert W_REF in kinds
        for kind, state in zip(kinds, trace.view_states[1:]):
            if kind == W_REF:
                break
            assert state == stale_view
        # ... and the refresh flushes the buffer to full convergence.
        assert algorithm.is_quiescent()
        merged = {**a.snapshot(), **b.snapshot()}
        assert trace.final_view_state == evaluate_view(pair_view, merged)

    def test_global_order_consistency_can_fail_even_for_sc(self):
        """SC tracks *a* consistent cut, not the actual global order: on
        some interleaving the warehouse applies sources' updates in an
        order that differs from wall-clock execution order, so classic
        (single-timeline) consistency fails while cut consistency holds.
        This is why Section 3.1's definitions do not transfer verbatim to
        multiple sources."""
        saw_global_violation = False
        for seed in range(30):
            workload = random_workload([R1, R2, R3], 8, seed=seed, initial=INITIAL)
            view, sources, algorithm = build("sc")
            sim = SyncKernel(sources, algorithm, workload)
            trace = sim.run(RandomSchedule(seed + 100))
            assert check_cuts(
                view, sim.per_source_states, trace.view_states
            ).consistent
            if not check_trace(view, trace).consistent:
                saw_global_violation = True
        assert saw_global_violation
