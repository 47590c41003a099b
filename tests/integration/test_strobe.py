"""Integration: the Strobe-style multi-source algorithm.

The repository's answer to the Section 7 open problem: for key-complete
views, the action-list + delete-filter + quiescent-apply design is
cut-consistent and convergent on every randomized interleaving where the
naive transplant fails about half the time.
"""

import pytest

from repro.consistency import check_cuts
from repro.errors import ProtocolError, SchemaError
from repro.kernel import SyncKernel
from repro.multisource import FragmentingIncremental
from repro.multisource.strobe import StrobeStyle
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
R3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
OWNERS = {"r1": "A", "r2": "B", "r3": "B"}
INITIAL = {"r1": [(1, 2), (4, 3)], "r2": [(2, 5)], "r3": [(5, 3), (6, 9)]}


def keyed_view():
    return View.natural_join("V", [R1, R2, R3], ["W", "r2.Y", "Z"])


def build():
    view = keyed_view()
    a = MemorySource([R1], {"r1": INITIAL["r1"]})
    b = MemorySource([R2, R3], {"r2": INITIAL["r2"], "r3": INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot()}
    algorithm = StrobeStyle(view, OWNERS, evaluate_view(view, merged))
    return view, {"A": a, "B": b}, algorithm


class TestApplicability:
    def test_requires_key_complete_view(self):
        bare = View.natural_join("V", [R1, R2, R3], ["W"])
        with pytest.raises(SchemaError):
            StrobeStyle(bare, OWNERS)

    def test_accepts_keyed_view(self):
        StrobeStyle(keyed_view(), OWNERS)

    def test_rejects_answer_for_unknown_fragment(self):
        from repro.messaging.messages import QueryAnswer
        from repro.relational.bag import SignedBag

        algo = StrobeStyle(keyed_view(), OWNERS)
        with pytest.raises(ProtocolError):
            algo.on_answer("A", QueryAnswer(99, SignedBag()))


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(12))
    def test_cut_consistent_and_convergent(self, seed):
        workload = random_workload(
            [R1, R2, R3], 10, seed=seed, initial=INITIAL, respect_keys=True
        )
        view, sources, algorithm = build()
        sim = SyncKernel(sources, algorithm, workload)
        trace = sim.run(RandomSchedule(seed * 13 + 5))
        report = check_cuts(view, sim.per_source_states, trace.view_states)
        assert report.strongly_consistent, report.detail
        assert algorithm.is_quiescent()

    def test_beats_the_naive_transplant_on_the_same_runs(self):
        naive_failures = strobe_failures = 0
        for seed in range(25):
            workload = random_workload(
                [R1, R2, R3], 10, seed=seed, initial=INITIAL, respect_keys=True
            )
            view, sources, strobe = build()
            sim = SyncKernel(sources, strobe, list(workload))
            sim.run(RandomSchedule(seed * 3 + 1))
            if not check_cuts(
                view, sim.per_source_states, sim.trace.view_states
            ).convergent:
                strobe_failures += 1

            view2 = keyed_view()
            a = MemorySource([R1], {"r1": INITIAL["r1"]})
            b = MemorySource([R2, R3], {"r2": INITIAL["r2"], "r3": INITIAL["r3"]})
            merged = {**a.snapshot(), **b.snapshot()}
            naive = FragmentingIncremental(view2, OWNERS, evaluate_view(view2, merged))
            sim2 = SyncKernel({"A": a, "B": b}, naive, list(workload))
            sim2.run(RandomSchedule(seed * 3 + 1))
            if not check_cuts(
                view2, sim2.per_source_states, sim2.trace.view_states
            ).convergent:
                naive_failures += 1
        assert strobe_failures == 0
        assert naive_failures > 0

    def test_cross_source_delete_insert_race(self):
        """The signature race: an insert's fragments in flight at both
        sources while a delete removes one of the joined tuples."""
        view, sources, algorithm = build()
        workload = [
            insert("r2", (3, 6)),       # joins r1 (4,3) and r3 (6,9)
            delete("r1", (4, 3)),       # removes the left part mid-flight
        ]
        sim = SyncKernel(sources, algorithm, workload)
        # Adversarial order: both updates land, then fragments answered.
        for action in [
            "update", "warehouse:B",     # insert processed, fragments out
            "update", "warehouse:A",     # delete processed (filter + AL)
            "answer:A", "answer:B",      # fragments evaluated post-delete
            "warehouse:A", "warehouse:B",
        ]:
            sim.step(action)
        while sim.available_actions():
            sim.step(sim.available_actions()[0])
        assert check_cuts(
            view, sim.per_source_states, sim.trace.view_states
        ).convergent
        # The deleted tuple's derivations must not survive.
        assert all(row[0] != 4 for row in algorithm.view_state().rows())

    def test_quiescent_apply_hides_intermediate_states(self):
        """The view changes only at quiescent points: every recorded view
        state must match a consistent cut (never a half-applied AL)."""
        for seed in (3, 7):
            workload = random_workload(
                [R1, R2, R3], 8, seed=seed, initial=INITIAL, respect_keys=True
            )
            view, sources, algorithm = build()
            sim = SyncKernel(sources, algorithm, workload)
            trace = sim.run(RandomSchedule(seed))
            assert check_cuts(
                view, sim.per_source_states, trace.view_states
            ).consistent
