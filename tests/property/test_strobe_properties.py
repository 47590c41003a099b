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

from families import build
from repro.consistency import Witness, check_cuts
from repro.kernel import SyncKernel
from repro.relational.engine import evaluate_view
from repro.simulation.schedules import RandomSchedule


def run(name, topology, workload_seed, schedule_seed, k):
    """``(sources, algorithm, report)`` of one seeded run: ``"split"``
    puts r1 at source A and r2, r3 at B; ``"keyless"`` one relation a
    source, no keys."""
    sources, algorithm, workload = build(
        name, workload_seed, topology=topology, updates=k
    )
    sim = SyncKernel(sources, algorithm, workload)
    trace = sim.run(RandomSchedule(schedule_seed))
    return sources, algorithm, check_cuts(
        algorithm.view, sim.per_source_states, trace.view_states
    )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_strobe_cut_consistent_and_convergent(workload_seed, schedule_seed, k):
    _, algorithm, report = run("strobe", "split", workload_seed, schedule_seed, k)
    assert report.strongly_consistent, report.detail
    assert algorithm.is_quiescent()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_sweep_cut_consistent_and_convergent(workload_seed, schedule_seed, k):
    _, algorithm, report = run("sweep", "keyless", workload_seed, schedule_seed, k)
    assert report.complete, report.detail
    assert algorithm.is_quiescent()


@settings(max_examples=25, deadline=None)
@given(
    st.booleans(),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(2, 12),
)
def test_stored_copies_are_complete(keyed, workload_seed, schedule_seed, k):
    topology = "split" if keyed else "keyless"
    _, _, report = run("multi-stored-copies", topology, workload_seed, schedule_seed, k)
    assert report.complete, report.detail


#: A keyed workload and interleaving on which Strobe's quiescent apply
#: skips the state after one update at each source, and on which the
#: fragmenting transplant's view holds tuples no cut's view does.
PINNED = dict(workload_seed=3, k=5, schedule_seed=22)


@pytest.mark.parametrize(
    "name, level, witness",
    [
        ("strobe", "strongly consistent", Witness(0, (1, 1))),
        ("fragmenting-incremental", "incorrect", Witness(10, (0, 0))),
    ],
)
def test_pinned_levels_below_complete(name, level, witness):
    _, _, report = run(name, "split", **PINNED)
    assert (report.level(), report.witness) == (level, witness), report.detail


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_strobe_final_state_equals_oracle(workload_seed, schedule_seed):
    """Convergence stated directly: final view == V over final sources."""
    sources, algorithm, _ = run("strobe", "split", workload_seed, schedule_seed, 8)
    merged = {}
    for source in sources.values():
        merged.update(source.snapshot())
    assert algorithm.view_state() == evaluate_view(algorithm.view, merged)
