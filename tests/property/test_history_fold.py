"""Property test: folded source states are the states the sources had.

:class:`~repro.simulation.trace.HistoryRecorder` snapshots every source
once, stores each ``S_up``'s update, and derives each later ``ss_i``
by applying that update to ``ss_{i-1}`` when the states are first read.
Two references: a fresh ``Source.snapshot()`` of every source after
every update, and the eager recorder of ``reference_recorder.py``,
which folded as it went — the states must equal both, and share
relations exactly as the eager ones do.  Hypothesis draws the topology
(1-3 sources, in memory or on SQLite), keyless workloads (so duplicates
and delete-one-occurrence are exercised) and the global interleaving.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_recorder import EagerRecorder, relation_sharing
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


class NoWarehouse:
    """An empty view that never changes: only source events are recorded."""

    def view_state(self):
        return SignedBag()

    def view_changes(self):
        return []


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

    recorder = HistoryRecorder(sources, NoWarehouse())
    eager = EagerRecorder(sources, SignedBag)
    seen_combined = [reference_states(sources)]
    seen_per_source = {name: [source.snapshot()] for name, source in sources.items()}
    cursors = dict.fromkeys(sources, 0)
    for serial, name in enumerate(order, start=1):
        update = workloads[name][cursors[name]]
        cursors[name] += 1
        sources[name].apply_update(update)
        assert recorder.update(name, update) == serial
        eager.update(name, update)
        seen_combined.append(reference_states(sources))
        seen_per_source[name].append(sources[name].snapshot())

    # Compared at the end: a fold that mutated a bag it shares with an
    # earlier state would have corrupted that earlier state by now.
    folded = recorder.trace.source_states
    assert folded == seen_combined
    assert recorder.per_source_states == seen_per_source
    assert recorder.action_log == [f"update:{name}" for name in order]
    assert relation_sharing(folded) == relation_sharing(eager.trace.source_states)
    for name, states in recorder.per_source_states.items():
        eager_states = eager.per_source_states[name]
        assert relation_sharing(states) == relation_sharing(eager_states)
        # The bag an update produced is the combined state's, not a copy.
        for before, after in zip(states, states[1:]):
            (touched,) = [rel for rel in after if after[rel] is not before[rel]]
            assert any(after[touched] is combined[touched] for combined in folded)
