"""Observability overhead benchmarks.

With observability *disabled* (``obs=None``, the default) every hook
site is a single ``is None`` check.  The table below reports that cost
as a projection and the enabled cost (spans + live counters) as a
measurement, so the trade-off is a number, not folklore; neither is
asserted, because both depend on the machine.  What is asserted is the
structural half: ``obs=None`` records nothing, and an instrumented run
ends in the same view.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` for the
regenerated tables).
"""

from __future__ import annotations

import time

from repro.core.eca import ECA
from repro.experiments.report import render_table
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import Observability, run_concurrent
from repro.source.memory import MemorySource
from repro.workloads.random_gen import random_workload

from _bench_util import emit

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
K = 24


def _run_once(obs):
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    warehouse = ECA(view, evaluate_view(view, source.snapshot()))
    workload = random_workload(SCHEMAS, K, seed=13, initial=INITIAL)
    return run_concurrent(
        source, warehouse, workload, clients=2, seed=1, obs=obs
    )


def _median_seconds(factory, repeats=9):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        _run_once(factory())
        samples.append(time.perf_counter() - started)
    return sorted(samples)[len(samples) // 2]


def test_bench_runtime_without_obs(benchmark):
    """Baseline: the default obs=None path."""
    result = benchmark(lambda: _run_once(None))
    assert result.updates == K


def test_bench_runtime_with_obs(benchmark):
    """Fully instrumented: spans + live metrics on the same workload."""
    result = benchmark(lambda: _run_once(Observability()))
    assert result.updates == K


def test_obs_overhead_table():
    """Disabled and enabled observability cost, as a table.

    The disabled path adds exactly one ``obs is None`` guard per hook
    site, so the honest measurement is: (guard cost x hook executions)
    as a fraction of the uninstrumented run time.  Wall-clock A/B of two
    full runs cannot resolve an effect this small above scheduler noise;
    the projection can.
    """
    # Warm-up, then the median uninstrumented run time.
    _run_once(None)
    baseline = _median_seconds(lambda: None)
    enabled = _median_seconds(Observability)

    # Upper-bound the number of guard evaluations one run performs:
    # every span an enabled run records corresponds to at most a few
    # guarded hook calls (begin/end + sends), so 8x spans is generous.
    obs = Observability()
    _run_once(obs)
    guard_evals = 8 * len(obs.tracer)

    # Median cost of one `x is not None` check (amortized over a loop).
    probe = None
    loops = 200_000
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        hits = 0
        for _ in range(loops):
            if probe is not None:
                hits += 1
        samples.append((time.perf_counter() - started) / loops)
    guard_seconds = sorted(samples)[len(samples) // 2]

    projected = guard_evals * guard_seconds / baseline
    rows = [
        {
            "mode": "obs=None (default)",
            "median ms": round(baseline * 1000, 2),
            "overhead": f"{projected * 100:.3f}% (projected)",
        },
        {
            "mode": "obs=Observability()",
            "median ms": round(enabled * 1000, 2),
            "overhead": f"{(enabled / baseline - 1) * 100:+.1f}% (measured)",
        },
    ]
    emit(render_table(f"Observability overhead (k={K}, 2 clients)", rows))


def test_obs_disabled_path_adds_no_spans_or_series():
    """Structural half of the overhead claim: obs=None records nothing."""
    result = _run_once(None)
    assert result.updates == K
    obs = Observability()
    observed = _run_once(obs)
    assert observed.final_view == result.final_view
    assert len(obs.tracer) > 0
