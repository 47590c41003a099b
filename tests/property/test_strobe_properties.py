"""Property tests: the multi-source algorithms' exact levels.

Hypothesis drives workload seed, interleaving seed, and workload length,
and :func:`repro.consistency.check_cuts` classifies each run over the
cuts of the sources' histories:

- SWEEP (no key requirement) and multi-source stored copies are
  **complete** on every run, as Agrawal et al. (1997) claim for SWEEP;
- Strobe (key-complete views) is at least **strongly consistent** — its
  quiescent apply skips source states, so on some runs it is not
  complete (one pinned below);
- the fragmenting transplant falls below consistent (one pinned below).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.consistency import Witness, check_cuts
from repro.core.registry import create_algorithm
from repro.kernel import SyncKernel
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
    report = check_cuts(view, sim.per_source_states, trace.view_states)
    assert report.strongly_consistent, report.detail
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
    report = check_cuts(view, sim.per_source_states, trace.view_states)
    assert report.complete, report.detail
    assert algorithm.is_quiescent()


def stored_copies(view, sources, owners):
    merged = {}
    for source in sources.values():
        merged.update(source.snapshot())
    return create_algorithm(
        "multi-stored-copies",
        view,
        evaluate_view(view, merged),
        owners=owners,
        initial_copies=merged,
    )


@settings(max_examples=25, deadline=None)
@given(
    st.booleans(),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_stored_copies_are_complete(keyed, workload_seed, schedule_seed, k):
    if keyed:
        view, sources, _ = build()
        owners = OWNERS
        workload = random_workload(
            [R1, R2, R3], k, seed=workload_seed, initial=INITIAL, respect_keys=True
        )
    else:
        view, sources, _ = build_sweep()
        owners = {"r1": "A", "r2": "B", "r3": "C"}
        workload = random_workload(KEYLESS, k, seed=workload_seed, initial=KEYLESS_INITIAL)
    sim = SyncKernel(sources, stored_copies(view, sources, owners), workload)
    trace = sim.run(RandomSchedule(schedule_seed))
    report = check_cuts(view, sim.per_source_states, trace.view_states)
    assert report.complete, report.detail


#: A keyed workload and interleaving on which Strobe's quiescent apply
#: skips the state after one update at each source, and on which the
#: fragmenting transplant's view holds tuples no cut's view does.
PINNED = dict(workload_seed=3, k=5, schedule_seed=22)


def pinned_run(name):
    view, sources, _ = build()
    merged = {**sources["A"].snapshot(), **sources["B"].snapshot()}
    algorithm = create_algorithm(
        name, view, evaluate_view(view, merged), owners=OWNERS
    )
    workload = random_workload(
        [R1, R2, R3], PINNED["k"], seed=PINNED["workload_seed"], initial=INITIAL,
        respect_keys=True,
    )
    sim = SyncKernel(sources, algorithm, workload)
    trace = sim.run(RandomSchedule(PINNED["schedule_seed"]))
    return check_cuts(view, sim.per_source_states, trace.view_states)


@pytest.mark.parametrize(
    "name, level, witness",
    [
        ("strobe", "strongly consistent", Witness(0, (1, 1))),
        ("fragmenting-incremental", "incorrect", Witness(10, (0, 0))),
    ],
)
def test_pinned_levels_below_complete(name, level, witness):
    report = pinned_run(name)
    assert (report.level(), report.witness) == (level, witness), report.detail


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
