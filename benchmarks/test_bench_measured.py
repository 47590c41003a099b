"""E7 — measured-vs-analytic cross-check.

The analytic curves of Figures 6.2-6.5 assume every join expands by
exactly J and every selection keeps exactly sigma; here we run the real
simulator on generated Example 6 data and check that the *shape* claims
survive contact with actual data:

- ECA transfers far fewer bytes than per-update recomputation;
- measured I/O reproduces the per-update slopes and the Scenario 1/2 gap;
- the best-case ECA run sends exactly one single-term query per update
  (no compensation), while the worst-case run's query complexity grows.

A documented divergence: the analytic worst case charges every
compensating term sigma*J result tuples, but on random data most
compensations return few or no tuples, so measured BECAWorst hugs
BECABest instead of opening the quadratic gap (EXPERIMENTS.md, E7).
The compensation cost is still visible in I/O, where a term costs I/Os
whether or not it produces tuples.
"""

from __future__ import annotations

import pytest

from _bench_util import emit, monotone_nondecreasing

from repro.costmodel.parameters import PaperParameters
from repro.experiments.measured import (
    measure_bytes_series,
    measure_io_series,
    run_example6_once,
)
from repro.experiments.report import render_series
from repro.relational.engine import (
    evaluate_query,
    evaluate_query_scalar,
    term_classes,
)
from repro.relational.expressions import Query
from repro.simulation.schedules import BestCaseSchedule, WorstCaseSchedule
from repro.source.memory import MemorySource
from repro.workloads.example6 import build_example6


@pytest.fixture(scope="module")
def params():
    return PaperParameters()


def test_bench_measured_bytes(benchmark, params):
    series = benchmark.pedantic(
        measure_bytes_series,
        args=(params,),
        kwargs={"k_values": (3, 12, 24, 48)},
        rounds=1,
        iterations=1,
    )
    emit(render_series("Measured B versus k (C=100, memory source)", series))

    # Every curve grows with k except the single recompute, which grows
    # only through relation growth (inserts enlarge the view).
    for name in ("BRVWorst", "BECABest", "BECAWorst"):
        assert monotone_nondecreasing(series[name]), name

    # ECA moves far less data than per-update recomputation at every k.
    for eca, rv in zip(series["BECAWorst"], series["BRVWorst"]):
        assert eca * 5 < rv

    # Worst-case ECA never beats best-case ECA.
    for best, worst in zip(series["BECABest"], series["BECAWorst"]):
        assert worst >= best


def test_bench_measured_io_scenario1(benchmark, params):
    series = benchmark.pedantic(
        measure_io_series,
        args=(1, params),
        kwargs={"k_values": (1, 3, 5, 7, 9, 11)},
        rounds=1,
        iterations=1,
    )
    emit(render_series("Measured IO versus k, Scenario 1", series))

    # Shape: RVBest flat-ish (just relation growth), RVWorst linear and
    # dominant, ECA curves in between with the compensation gap visible.
    assert series["IORVWorst"][-1] > series["IOECAWorst"][-1]
    assert series["IOECAWorst"][-1] > series["IOECABest"][-1]
    # The crossover against recompute-once lands at small k (paper: k=3).
    crossing = [
        k
        for k, eca, rv in zip(series["k"], series["IOECABest"], series["IORVBest"])
        if eca >= rv
    ]
    assert crossing and crossing[0] <= 7


def test_bench_measured_io_scenario2(benchmark, params):
    series = benchmark.pedantic(
        measure_io_series,
        args=(2, params),
        kwargs={"k_values": (1, 3, 5, 7, 9, 11)},
        rounds=1,
        iterations=1,
    )
    emit(render_series("Measured IO versus k, Scenario 2", series))
    # Scenario 2 costs dwarf Scenario 1 (paper Section 6.3).
    s1 = measure_io_series(1, params, k_values=(1, 3, 5, 7, 9, 11))
    for name in ("IORVBest", "IORVWorst", "IOECABest", "IOECAWorst"):
        assert series[name][-1] > s1[name][-1], name
    # ECA beats per-update recompute by roughly a factor of I.
    assert series["IORVWorst"][-1] / series["IOECABest"][-1] > params.I / params.I_prime


def test_bench_measured_compensation_visible_in_query_complexity(benchmark, params):
    """Worst-case interleaving must evaluate more terms than best-case:
    that *is* the compensation overhead, measured on the wire."""

    def both():
        best = run_example6_once(params, 9, "eca", BestCaseSchedule())
        worst = run_example6_once(params, 9, "eca", WorstCaseSchedule())
        return best, worst

    best, worst = benchmark.pedantic(both, rounds=1, iterations=1)
    assert best.terms_evaluated == 9  # one single-term query per update
    assert worst.terms_evaluated > best.terms_evaluated
    assert best.messages == worst.messages == 18  # M = 2k regardless


#: Updates in the divergence gate's storm: enough that tuples of different
#: terms of one class share join values, so a grouped pass that let them
#: meet would answer differently from the per-term oracle.
STORM_K = 24


def test_bench_batched_engine_matches_scalar_oracle(benchmark, params):
    """The CI `bench-smoke` divergence gate (docs/PERFORMANCE.md).

    The columnar engine earns its speedup only if it computes exactly
    what the retired row-at-a-time plan computed.  On the measured
    workload's own data — Example 6 states before and after each
    update, plus every substituted delta query — `evaluate_query` and
    `evaluate_query_scalar` must agree bag-for-bag.

    Those are single-term queries, which never reach the grouped pass, so
    the sweep goes on to a storm over the final state: no answer arrives,
    every `Q_i = V<U_i> - sum_j Q_j<U_i>` is built against all earlier
    pending queries and checked whole, and split the way the warehouse
    splits it (fully bound part on an empty state, the rest at the
    source).  All seven bound masks of three relations must occur, and
    each mask with two or more bound operands as a class of several terms.

    Every query is also evaluated through the *live* ``MemorySource``,
    whose kept batches and bucket maps the preceding updates maintained
    in place: it must equal the scalar oracle on the current state too.
    """

    def divergence_sweep():
        checked = 0
        masks = set()
        grouped = set()
        for seed in (0, 4):
            setup = build_example6(params, 6, seed)
            source = MemorySource(setup.schemas, setup.initial)
            view_query = setup.view.as_query()
            for update in setup.workload:
                state = source.snapshot()
                delta = setup.view.substitute(
                    update.relation, update.signed_tuple()
                )
                for query in (view_query, delta):
                    expected = evaluate_query_scalar(query, state)
                    assert evaluate_query(query, state) == expected
                    assert source.evaluate(query) == expected
                    checked += 1
                source.apply_update(update)
            final = source.snapshot()
            expected = evaluate_query_scalar(view_query, final)
            assert evaluate_query(view_query, final) == expected
            assert source.evaluate(view_query) == expected
            checked += 1
            pending = []
            for update in build_example6(params, STORM_K, seed).workload:
                signed = update.signed_tuple()
                terms = list(setup.view.substitute(update.relation, signed).terms)
                for earlier in pending:
                    terms.extend(
                        earlier.substitute(update.relation, signed, -1).terms
                    )
                query = Query(terms)
                local, remote = query.partition()
                for part, state in ((query, final), (local, {}), (remote, final)):
                    expected = evaluate_query_scalar(part, final)
                    assert evaluate_query(part, state) == expected
                    assert source.evaluate(part) == expected
                    checked += 1
                for (_, mask), members in term_classes(query.terms).items():
                    masks.add(mask)
                    if len(members) > 1:
                        grouped.add(mask)
                pending.append(remote)
        return checked, masks, grouped

    checked, masks, grouped = benchmark.pedantic(
        divergence_sweep, rounds=1, iterations=1
    )
    assert checked == 2 * (6 * 2 + 1 + STORM_K * 3)
    assert len(masks) == 7
    assert grouped == {mask for mask in masks if sum(mask) >= 2}


def test_bench_measured_sqlite_source_agrees(benchmark, params):
    """The SQLite-backed source reports identical measured costs."""

    def pair():
        memory = run_example6_once(
            params, 6, "eca", WorstCaseSchedule(), io_scenario=1, seed=4
        )
        sqlite = run_example6_once(
            params, 6, "eca", WorstCaseSchedule(), io_scenario=1, seed=4,
            source_kind="sqlite",
        )
        return memory, sqlite

    memory, sqlite = benchmark.pedantic(pair, rounds=1, iterations=1)
    assert memory.summary() == sqlite.summary()
