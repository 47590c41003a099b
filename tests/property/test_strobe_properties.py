"""Property tests: the Strobe- and SWEEP-style multi-source algorithms.

Hypothesis drives workload seed, interleaving seed, and workload length;
both algorithms must be cut-consistent and convergent on every run
(Strobe on key-complete views, SWEEP with no key requirement).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import SyncKernel
from repro.multisource import check_cut_consistency, check_cut_convergence
from repro.multisource.strobe import StrobeStyle
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
R3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
OWNERS = {"r1": "A", "r2": "B", "r3": "B"}
INITIAL = {"r1": [(1, 2), (4, 3)], "r2": [(2, 5)], "r3": [(5, 3), (6, 9)]}


def build():
    view = View.natural_join("V", [R1, R2, R3], ["W", "r2.Y", "Z"])
    a = MemorySource([R1], {"r1": INITIAL["r1"]})
    b = MemorySource([R2, R3], {"r2": INITIAL["r2"], "r3": INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot()}
    return view, {"A": a, "B": b}, StrobeStyle(view, OWNERS, evaluate_view(view, merged))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_strobe_cut_consistent_and_convergent(workload_seed, schedule_seed, k):
    workload = random_workload(
        [R1, R2, R3], k, seed=workload_seed, initial=INITIAL, respect_keys=True
    )
    view, sources, algorithm = build()
    sim = SyncKernel(sources, algorithm, workload)
    trace = sim.run(RandomSchedule(schedule_seed))
    assert check_cut_consistency(view, sim.per_source_states, trace.view_states)
    assert check_cut_convergence(view, sim.per_source_states, trace.final_view_state)
    assert algorithm.is_quiescent()


KEYLESS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
    RelationSchema("r3", ("Y", "Z")),
]
KEYLESS_INITIAL = {"r1": [(1, 2), (4, 2)], "r2": [(2, 5)], "r3": [(5, 3), (5, 9)]}


def build_sweep():
    from repro.multisource.sweep import SweepStyle

    view = View.natural_join("V", KEYLESS, ["W", "Z"])
    a = MemorySource([KEYLESS[0]], {"r1": KEYLESS_INITIAL["r1"]})
    b = MemorySource([KEYLESS[1]], {"r2": KEYLESS_INITIAL["r2"]})
    c = MemorySource([KEYLESS[2]], {"r3": KEYLESS_INITIAL["r3"]})
    merged = {**a.snapshot(), **b.snapshot(), **c.snapshot()}
    owners = {"r1": "A", "r2": "B", "r3": "C"}
    return (
        view,
        {"A": a, "B": b, "C": c},
        SweepStyle(view, owners, evaluate_view(view, merged)),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_sweep_cut_consistent_and_convergent(workload_seed, schedule_seed, k):
    workload = random_workload(
        KEYLESS, k, seed=workload_seed, initial=KEYLESS_INITIAL
    )
    view, sources, algorithm = build_sweep()
    sim = SyncKernel(sources, algorithm, workload)
    trace = sim.run(RandomSchedule(schedule_seed))
    assert check_cut_consistency(view, sim.per_source_states, trace.view_states)
    assert check_cut_convergence(view, sim.per_source_states, trace.final_view_state)
    assert algorithm.is_quiescent()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_strobe_final_state_equals_oracle(workload_seed, schedule_seed):
    """Convergence stated directly: final view == V over final sources."""
    workload = random_workload(
        [R1, R2, R3], 8, seed=workload_seed, initial=INITIAL, respect_keys=True
    )
    view, sources, algorithm = build()
    sim = SyncKernel(sources, algorithm, workload)
    sim.run(RandomSchedule(schedule_seed))
    merged = {}
    for source in sources.values():
        merged.update(source.snapshot())
    assert algorithm.view_state() == evaluate_view(view, merged)
