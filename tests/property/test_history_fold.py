"""Property test: folded source states are the states the sources had.

:class:`~repro.simulation.trace.HistoryRecorder` snapshots every source
once and derives each later ``ss_i`` by applying the ``S_up`` event's
update to ``ss_{i-1}``.  The reference below is what the recorder did
before it folded: a fresh ``Source.snapshot()`` of every source after
every update.  Hypothesis draws the topology (1-3 sources, in memory or
on SQLite), keyless workloads (so duplicates and delete-one-occurrence
are exercised) and the global interleaving.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.bag import SignedBag
from repro.relational.schema import RelationSchema
from repro.simulation.trace import HistoryRecorder
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.workloads.random_gen import random_workload


def build(kinds, workload_seed, k):
    """``s<i>`` owns ``s<i>r1(W, X)`` / ``s<i>r2(X, Y)``; k updates each."""
    sources, workloads = {}, {}
    for index, kind in enumerate(kinds):
        name = f"s{index}"
        schemas = [
            RelationSchema(f"{name}r1", ("W", "X")),
            RelationSchema(f"{name}r2", ("X", "Y")),
        ]
        initial = {f"{name}r1": [(1, 2), (1, 2), (2, 3)], f"{name}r2": [(2, 5)]}
        sources[name] = kind(schemas, initial)
        workloads[name] = random_workload(
            schemas, k, seed=workload_seed + index, initial=initial, domain=3
        )
    return sources, workloads


def reference_states(sources):
    """The pre-fold recorder: every source re-snapshotted, every time."""
    combined = {}
    for source in sources.values():
        combined.update(source.snapshot())
    return combined


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.sampled_from([MemorySource, SQLiteSource]), min_size=1, max_size=3),
    st.integers(0, 10_000),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
def test_folded_states_equal_observed_snapshots(kinds, workload_seed, k, rng):
    sources, workloads = build(kinds, workload_seed, k)
    order = [name for name, updates in workloads.items() for _ in updates]
    rng.shuffle(order)

    recorder = HistoryRecorder(sources, SignedBag)
    seen_combined = [reference_states(sources)]
    seen_per_source = {name: [source.snapshot()] for name, source in sources.items()}
    cursors = dict.fromkeys(sources, 0)
    for serial, name in enumerate(order, start=1):
        update = workloads[name][cursors[name]]
        cursors[name] += 1
        sources[name].apply_update(update)
        assert recorder.update(name, update) == serial
        seen_combined.append(reference_states(sources))
        seen_per_source[name].append(sources[name].snapshot())

    # Compared at the end: a fold that mutated a bag it shares with an
    # earlier state would have corrupted that earlier state by now.
    assert recorder.trace.source_states == seen_combined
    assert recorder.per_source_states == seen_per_source
    assert recorder.action_log == [f"update:{name}" for name in order]
