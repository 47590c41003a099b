"""Integration: the SWEEP-style multi-source algorithm.

No keys, duplicates retained, three autonomous sources: the sequential
sweep with locally computed corrections must be cut-consistent and
convergent on every interleaving.
"""

import pytest

from repro.consistency import check_cuts
from repro.errors import ProtocolError, SchemaError
from repro.kernel import SyncKernel
from repro.messaging.messages import QueryAnswer
from repro.multisource.sweep import SweepStyle
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
OWNERS = {"r1": "A", "r2": "B", "r3": "C"}
INITIAL = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (5, 9)]}


def build():
    view = View.natural_join("V", [R1, R2, R3], ["W", "Z"])
    a = MemorySource([R1], {"r1": INITIAL["r1"]})
    b = MemorySource([R2], {"r2": INITIAL["r2"]})
    c = MemorySource([R3], {"r3": INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot(), **c.snapshot()}
    algorithm = SweepStyle(view, OWNERS, evaluate_view(view, merged))
    return view, {"A": a, "B": b, "C": c}, algorithm


class TestApplicability:
    def test_no_keys_needed(self):
        view, _, algorithm = build()
        assert not view.contains_all_keys()
        assert algorithm.name == "sweep"

    def test_self_joins_rejected(self):
        emp = RelationSchema("emp", ("name", "dept"))
        view = View.natural_join(
            "pairs", [emp.aliased("a"), emp.aliased("b")], ["a.name", "b.name"]
        )
        with pytest.raises(SchemaError):
            SweepStyle(view, {"emp": "A"})

    def test_unexpected_answer_rejected(self):
        _, _, algorithm = build()
        with pytest.raises(ProtocolError):
            algorithm.on_answer("A", QueryAnswer(99, SignedBag()))


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(12))
    def test_cut_consistent_and_convergent(self, seed):
        workload = random_workload([R1, R2, R3], 10, seed=seed, initial=INITIAL)
        view, sources, algorithm = build()
        sim = SyncKernel(sources, algorithm, workload)
        trace = sim.run(RandomSchedule(seed * 17 + 3))
        report = check_cuts(view, sim.per_source_states, trace.view_states)
        assert report.strongly_consistent, report.detail
        assert algorithm.is_quiescent()

    def test_duplicates_maintained(self):
        """The keyless regime Strobe cannot handle: duplicate base rows
        and duplicate view tuples."""
        view, sources, algorithm = build()
        workload = [
            insert("r2", (2, 5)),   # second copy of the same row
            insert("r1", (1, 2)),   # second copy -> view multiplicities 2x
        ]
        sim = SyncKernel(sources, algorithm, workload)
        sim.run(RandomSchedule(3))
        merged = {}
        for source in sources.values():
            merged.update(source.snapshot())
        assert algorithm.view_state() == evaluate_view(view, merged)
        assert max(
            count for _, count in algorithm.view_state().items()
        ) >= 4  # duplicated both sides of the join

    def test_interference_correction_on_hop_relation(self):
        """A delete on the hop's relation lands while the hop is in
        flight; the locally computed correction must cancel the miss."""
        view, sources, algorithm = build()
        workload = [
            insert("r1", (7, 2)),   # sweep hops to r2@B then r3@C
            delete("r2", (2, 5)),   # interferes with the r2 hop
        ]
        sim = SyncKernel(sources, algorithm, workload)
        for action in [
            "update", "warehouse:A",   # U1 processed, hop to B in flight
            "update", "warehouse:B",   # delete received & queued
            "answer:B",                # hop evaluated AFTER the delete
            "warehouse:B",             # answer + correction
        ]:
            sim.step(action)
        while sim.available_actions():
            sim.step(sim.available_actions()[0])
        merged = {}
        for source in sources.values():
            merged.update(source.snapshot())
        assert algorithm.view_state() == evaluate_view(view, merged)
        assert check_cuts(
            view, sim.per_source_states, sim.trace.view_states
        ).consistent

    @pytest.mark.parametrize("seed", range(6))
    def test_hop_corrections_equal_the_reference_evaluator(self, seed, monkeypatch):
        """The correction runs through the columnar engine; the
        cross-product ``Query.evaluate`` is its oracle, signs and
        duplicate bindings included."""
        from repro.multisource import sweep as sweep_module

        corrections = []

        def checked(query, state):
            result = evaluate_query(query, state)
            assert state == {} and result == query.evaluate({})
            corrections.append(result)
            return result

        evaluate_query = sweep_module.evaluate_query
        monkeypatch.setattr(sweep_module, "evaluate_query", checked)
        view, sources, algorithm = build()
        workload = random_workload(
            [R1, R2, R3], 14, seed=seed, initial=INITIAL, delete_ratio=0.4,
            domain=3,
        )
        SyncKernel(sources, algorithm, workload).run(RandomSchedule(seed))
        merged = {}
        for source in sources.values():
            merged.update(source.snapshot())
        assert algorithm.view_state() == evaluate_view(view, merged)
        assert any(not bag.is_empty() for bag in corrections)

    def test_message_count_is_free_relations_per_update(self):
        """Each insert/delete costs one query per remaining free relation
        (two hops for this 3-relation view)."""
        view, sources, algorithm = build()
        # Both updates join existing data, so no hop short-circuits.
        workload = [insert("r1", (7, 2)), insert("r2", (2, 5))]
        sim = SyncKernel(sources, algorithm, workload)
        sim.run(RandomSchedule(1))
        queries = len(sim.trace.events_of_kind("S_qu"))
        assert queries == 4  # 2 updates x 2 hops

    def test_empty_bindings_short_circuit(self):
        """A hop with no surviving bindings skips the remaining sources."""
        view, sources, algorithm = build()
        # (9,9) joins nothing: the r2 hop returns empty, so no r3 hop.
        workload = [insert("r1", (9, 99))]
        sim = SyncKernel(sources, algorithm, workload)
        sim.run(RandomSchedule(1))
        assert len(sim.trace.events_of_kind("S_qu")) == 1
        assert algorithm.view_state() == evaluate_view(
            view,
            {
                **sources["A"].snapshot(),
                **sources["B"].snapshot(),
                **sources["C"].snapshot(),
            },
        )
