"""Property tests: the correctness hierarchy under arbitrary interleavings.

Hypothesis drives both the workload *and* the interleaving (as a seed for
the random schedule), hammering the algorithms far beyond the paper's
hand-worked examples.  The asserted levels are exactly the paper's claims:

- ECA, ECA-Key, ECA-Local: strongly consistent (Appendix B / C);
- LCA, SC: complete;
- the basic algorithm: correct when updates are spaced (Section 5.6
  property 3), anomalous in general (not asserted per-case — that's
  covered statistically in the integration suite).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from families import build
from repro.consistency import check_trace
from repro.simulation.driver import Simulation
from repro.simulation.schedules import BestCaseSchedule, RandomSchedule

INITIAL = {"r1": [(0, 1), (1, 2)], "r2": [(1, 0), (2, 1)]}


def run(algorithm, workload_seed, schedule, k=8):
    """``(warehouse, report)`` of one run on the Simulation front door."""
    sources, warehouse, workload = build(
        algorithm, workload_seed, updates=k, initial=INITIAL
    )
    trace = Simulation(sources["source"], warehouse, workload).run(schedule)
    return warehouse, check_trace(warehouse.view, trace)


seeds = st.integers(0, 10_000)


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_eca_strongly_consistent(workload_seed, schedule_seed):
    _, report = run("eca", workload_seed, RandomSchedule(schedule_seed))
    assert report.strongly_consistent, report.detail


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_eca_key_strongly_consistent(workload_seed, schedule_seed):
    _, report = run("eca-key", workload_seed, RandomSchedule(schedule_seed))
    assert report.strongly_consistent, report.detail


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_eca_local_strongly_consistent(workload_seed, schedule_seed):
    _, report = run("eca-local", workload_seed, RandomSchedule(schedule_seed))
    assert report.strongly_consistent, report.detail


@settings(max_examples=25, deadline=None)
@given(seeds, seeds)
def test_lca_complete(workload_seed, schedule_seed):
    _, report = run("lca", workload_seed, RandomSchedule(schedule_seed))
    assert report.complete, report.detail


@settings(max_examples=15, deadline=None)
@given(seeds, seeds)
def test_stored_copies_complete(workload_seed, schedule_seed):
    _, report = run("stored-copies", workload_seed, RandomSchedule(schedule_seed))
    assert report.complete, report.detail


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_basic_correct_when_updates_spaced(workload_seed):
    _, report = run("basic", workload_seed, BestCaseSchedule())
    assert report.strongly_consistent


@settings(max_examples=15, deadline=None)
@given(seeds, seeds)
def test_every_algorithm_quiesces(workload_seed, schedule_seed):
    for algorithm in ("eca", "eca-key", "eca-local", "lca", "stored-copies"):
        warehouse, _ = run(algorithm, workload_seed, RandomSchedule(schedule_seed), k=6)
        assert warehouse.is_quiescent(), algorithm
