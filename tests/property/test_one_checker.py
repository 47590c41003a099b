"""Property tests: the one checker over cuts against the two it replaced.

``reference_checker.py`` keeps the old ``check_trace`` (one global
sequence of source states) and the old cut functions (monotone paths of
cuts, which never decided weak consistency or completeness apart).

(a) On one coordinate the one checker *is* the old ``check_trace``: equal
    flags at all five levels on runs of every single-source registry
    family under random, best- and worst-case schedules, on arbitrary
    sequences of view states drawn from a run's ``V[ss_i]`` and a bag no
    source state yields, and on the paper's worked examples.
(b) Over several sources ``consistent`` and ``convergent`` are the old
    cut functions', for every multi-source family.
(c) A run that recorded no view states is refused, through either entry
    point, with a typed error rather than a verdict.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

import reference_checker as reference
from families import MULTI_SOURCE, SINGLE_SOURCE, build, view
from repro.consistency import check_cuts, check_trace
from repro.errors import SimulationError
from repro.experiments.runner import run_scenario
from repro.kernel import SyncKernel
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.runtime import run_concurrent
from repro.simulation.schedules import BestCaseSchedule, RandomSchedule, WorstCaseSchedule
from repro.simulation.trace import Trace
from repro.workloads.paper_examples import PAPER_EXAMPLES

KEYED = view()

FLAGS = ("convergent", "weakly_consistent", "consistent", "strongly_consistent", "complete")


def flags(report):
    return {flag: getattr(report, flag) for flag in FLAGS}


def single_source_run(name, k, workload_seed, schedule):
    sources, algorithm, workload = build(name, workload_seed, updates=k, domain=4)
    kernel = SyncKernel(sources, algorithm, workload)
    try:
        kernel.run(schedule)
    except SimulationError:
        pass  # a deferred family that cannot quiesce: its history so far
    return kernel


SCHEDULES = {
    "random": RandomSchedule,
    "best": lambda seed: BestCaseSchedule(),
    "worst": lambda seed: WorstCaseSchedule(),
}


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(SINGLE_SOURCE),
    k=st.integers(1, 8),
    workload_seed=st.integers(0, 10_000),
    schedule=st.sampled_from(sorted(SCHEDULES)),
    schedule_seed=st.integers(0, 10_000),
)
@example(name="basic", k=4, workload_seed=3, schedule="worst", schedule_seed=0)
def test_one_coordinate_equals_the_old_check_trace(
    name, k, workload_seed, schedule, schedule_seed
):
    kernel = single_source_run(name, k, workload_seed, SCHEDULES[schedule](schedule_seed))
    trace = kernel.trace
    ours = check_trace(KEYED, trace)
    assert flags(ours) == flags(reference.check_trace(KEYED, trace))
    assert flags(ours) == flags(
        check_cuts(KEYED, kernel.per_source_states, trace.view_states)
    )


@settings(max_examples=200, deadline=None)
@given(
    workload_seed=st.integers(0, 10_000),
    k=st.integers(1, 6),
    picks=st.lists(st.integers(-1, 6), min_size=1, max_size=9),
)
def test_any_sequence_of_view_states_gets_the_old_verdict(workload_seed, k, picks):
    """View states drawn from ``V[ss_i]`` (``-1``: a bag no source state
    yields), each pick a fresh object: order, gaps, repeats and strays at
    will."""
    kernel = single_source_run("recompute", k, workload_seed, RandomSchedule(0))
    states = kernel.trace.source_states
    stray = SignedBag.from_rows([("stray", "row")])
    trace = Trace()
    for state in states:
        trace.record_source_state(state)
    for pick in picks:
        if pick < 0:
            trace.record_view_state(stray.copy())
        else:
            trace.record_view_state(evaluate_view(KEYED, states[min(pick, len(states) - 1)]))
    assert flags(check_trace(KEYED, trace)) == flags(reference.check_trace(KEYED, trace))


@pytest.mark.parametrize("name", sorted(PAPER_EXAMPLES))
def test_the_papers_examples_keep_their_verdicts(name):
    scenario = PAPER_EXAMPLES[name]
    trace, _ = run_scenario(scenario)
    ours = check_trace(scenario.view, trace)
    theirs = reference.check_trace(scenario.view, trace)
    assert (ours.level(), flags(ours)) == (theirs.level(), flags(theirs))


@pytest.mark.parametrize(
    "name, level", [("example-2", "incorrect"), ("example-3", "consistent")]
)
def test_examples_2_and_3_witness_their_anomaly(name, level):
    """The basic algorithm's anomalies the paper walks through: the last
    view state is the one that falls short, in Example 2 of every cut."""
    scenario = PAPER_EXAMPLES[name]
    trace, _ = run_scenario(scenario)
    report = check_trace(scenario.view, trace)
    assert report.level() == level
    final = len(trace.source_states) - 1
    assert report.witness == (len(trace.view_states) - 1, (final,))
    assert ("equals V at no cut" in report.detail) == (level == "incorrect")


def multi_source_run(name, k, workload_seed, schedule_seed):
    """r1 at source A, r2 and r3 at B."""
    sources, algorithm, workload = build(
        name, workload_seed, topology="split", updates=k
    )
    kernel = SyncKernel(sources, algorithm, workload)
    kernel.run(RandomSchedule(schedule_seed))
    return algorithm.view, kernel


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(MULTI_SOURCE),
    k=st.integers(1, 10),
    workload_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
)
def test_over_cuts_consistent_and_convergent_equal_the_old_cut_functions(
    name, k, workload_seed, schedule_seed
):
    view, kernel = multi_source_run(name, k, workload_seed, schedule_seed)
    per_source, views = kernel.per_source_states, kernel.trace.view_states
    ours = check_cuts(view, per_source, views)
    assert ours.consistent == reference.check_cut_consistency(view, per_source, views)
    assert ours.convergent == reference.check_cut_convergence(view, per_source, views[-1])
    assert ours.weakly_consistent >= ours.consistent
    assert ours.complete <= ours.strongly_consistent
    assert (ours.witness is None) == ours.complete


class TestUntracedRunIsRefused:
    """``record_trace=False`` records no view state: no level can hold."""

    @pytest.fixture
    def untraced(self):
        sources, algorithm, workload = build("eca", 1, updates=8)
        return run_concurrent(sources, algorithm, workload, seed=1, record_trace=False)

    def test_check_trace(self, untraced):
        with pytest.raises(SimulationError, match="no view states"):
            check_trace(KEYED, untraced.trace)

    def test_check_cuts(self, untraced):
        with pytest.raises(SimulationError, match="no view states"):
            check_cuts(KEYED, untraced.per_source_states, untraced.trace.view_states)
