"""Integration: the Section 3.1 correctness matrix, validated empirically.

For every algorithm and a battery of workloads x interleavings, the
observed correctness level must be at least what the paper claims (and,
for the basic algorithm, the anomaly must actually be observable on
adversarial interleavings).
"""

import pytest

from families import INITIAL, SCHEMAS, build
from repro.consistency import check_trace
from repro.simulation.driver import Simulation
from repro.simulation.schedules import (
    BestCaseSchedule,
    EagerSourceSchedule,
    RandomSchedule,
    WorstCaseSchedule,
)
from repro.workloads.random_gen import random_workload


def run_one(algorithm, workload, schedule, recorder=None, **options):
    """The verdict on one run of ``families``' one-source pair."""
    sources, warehouse, _ = build(algorithm, **options)
    trace = Simulation(sources["source"], warehouse, workload, recorder).run(schedule)
    return check_trace(warehouse.view, trace)


def workloads(count=8, k=10):
    return [
        random_workload(SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True)
        for seed in range(count)
    ]


def schedules(seed):
    return [
        BestCaseSchedule(),
        WorstCaseSchedule(),
        EagerSourceSchedule(),
        RandomSchedule(seed),
        RandomSchedule(seed + 1000),
    ]


STRONG = ("eca", "eca-key", "eca-local", "lca", "stored-copies")


@pytest.mark.parametrize("algorithm", STRONG)
def test_strongly_consistent_under_all_interleavings(algorithm):
    for i, workload in enumerate(workloads()):
        for schedule in schedules(i):
            report = run_one(algorithm, workload, schedule)
            assert report.strongly_consistent, (
                f"{algorithm} violated strong consistency "
                f"(workload {i}): {report.detail}"
            )


@pytest.mark.parametrize("algorithm", ("lca", "stored-copies"))
def test_complete_algorithms(algorithm):
    for i, workload in enumerate(workloads(count=6)):
        for schedule in schedules(i):
            report = run_one(algorithm, workload, schedule)
            assert report.complete, (
                f"{algorithm} missed a source state (workload {i}): "
                f"{report.detail}"
            )


def test_basic_algorithm_is_anomalous_somewhere():
    """Examples 2/3 generalized: some workload x interleaving must break
    the naive algorithm — otherwise our anomaly machinery is vacuous."""
    broken = 0
    for i, workload in enumerate(workloads(count=10)):
        for schedule in schedules(i):
            report = run_one("basic", workload, schedule)
            if not report.weakly_consistent or not report.convergent:
                broken += 1
    assert broken > 0


def test_basic_algorithm_correct_when_updates_are_spaced():
    """Section 5.6 property 3: with each query answered before the next
    update, even the basic algorithm behaves (and ECA degenerates to it)."""
    for i, workload in enumerate(workloads(count=6)):
        report = run_one("basic", workload, BestCaseSchedule())
        assert report.strongly_consistent


def test_eca_sends_no_compensation_in_best_case():
    """Section 5.6 property 3, on the wire: under the best-case schedule
    every ECA query has a single term (no compensation)."""
    from repro.costmodel.counters import CostRecorder

    workload = random_workload(SCHEMAS, 10, seed=3, initial=INITIAL, respect_keys=True)
    recorder = CostRecorder()
    run_one("eca", workload, BestCaseSchedule(), recorder)
    assert recorder.terms_evaluated == recorder.answer_messages


def test_recompute_with_dividing_period_is_strongly_consistent():
    for period in (1, 2, 5, 10):
        workload = random_workload(
            SCHEMAS, 10, seed=11, initial=INITIAL, respect_keys=True
        )
        report = run_one("recompute", workload, BestCaseSchedule(), period=period)
        assert report.strongly_consistent, f"period={period}: {report.detail}"


def test_unbuffered_eca_is_convergent_but_can_be_inconsistent():
    """Section 5.2's warning: applying answers as they arrive (instead of
    buffering in COLLECT) stays convergent but loses consistency."""
    saw_inconsistent = False
    for seed in range(30):
        workload = random_workload(
            SCHEMAS, 10, seed=seed, initial=INITIAL, respect_keys=True
        )
        for schedule in (WorstCaseSchedule(), RandomSchedule(seed)):
            report = run_one("eca", workload, schedule, buffer_answers=False)
            assert report.convergent, report.detail
            if not report.consistent:
                saw_inconsistent = True
    assert saw_inconsistent
