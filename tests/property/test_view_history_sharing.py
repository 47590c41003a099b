"""Property tests: a view's history is ``ws_0`` plus what changed.

:class:`~repro.warehouse.state.MaterializedView` hands its live contents
out as a read-only snapshot and copies them only when a write follows,
so consecutive ``ws_j`` of a trace share every state that did not
change.  Three things can go wrong, and each has a property here:

(a) *aliasing* — a write that skipped the copy edits a state the trace
    already holds.  A :class:`~repro.kernel.sync.SyncKernel` is stepped
    over every single-source registry algorithm, an unbuffered ECA, a
    three-family catalog and ``batch_k=2``; a deep copy of the view is
    taken after each warehouse event and compared with
    ``trace.view_states`` **at the end**, when a corrupted early state
    can no longer hide.
(b) *the O(|delta|) ``apply_delta``* disagrees with the whole-bag one it
    replaced (kept below as the reference), on contents, dirty rows or
    on what a rejected delta leaves behind.
(c) *the serving-key index* drifts from the contents it indexes.
(d) *the fold* — the recorder stores ``ws_0`` plus each event's
    journaled changes and folds them when read — differs from the eager
    recorder it replaced (``reference_recorder.py``), run beside it on
    the same calls: every registry algorithm (two sources for the
    multi-source families) and a catalog with sharing on and off, on the
    kernel or the runtime with ``batch_k=2``, faults, a mid-UQS crash
    and ``shards=2``.  States, ``is``-sharing and the checkers' verdicts
    must all be the same.
"""

import tempfile

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pytest

from reference_recorder import recording_both, relation_sharing, sharing
from repro.consistency import check_trace, staleness_profile
from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.lazy import LCA
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.durability.crash import CrashPolicy
from repro.errors import SimulationError, ViewStateError
from repro.kernel.sync import SyncKernel
from repro.multisource.consistency import check_cut_consistency
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.serving import row_key
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.warehouse.state import MaterializedView
from repro.workloads.random_gen import random_workload

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
KEYED = View.natural_join("V", SCHEMAS, ["W", "Y"])

SINGLE_SOURCE = sorted(
    name for name, cls in ALGORITHMS.items() if not cls.multi_source
)


def build(name, source):
    """The named warehouse over ``source``: an algorithm, or a catalog."""
    state = source.snapshot()
    initial = evaluate_view(KEYED, state)
    if name == "catalog":
        other = View.natural_join("other", SCHEMAS, ["Y", "W"])
        solo = View.natural_join("solo", SCHEMAS[:1], ["W"])
        return WarehouseCatalog(
            {
                "keyed": ECAKey(KEYED, initial),
                "other": ECA(other, evaluate_view(other, state)),
                "solo": LCA(solo, evaluate_view(solo, state)),
            }
        )
    if name == "eca-unbuffered":
        return ECA(KEYED, initial, buffer_answers=False)
    if name == "stored-copies":
        return create_algorithm(name, KEYED, initial, initial_copies=state)
    return create_algorithm(name, KEYED, initial)


def deep_copy(warehouse):
    """The warehouse's view, copied row by row from the members' ``as_bag()``."""
    members = getattr(warehouse, "algorithms", None)
    if members is None:
        return warehouse.mv.as_bag()
    tagged = SignedBag()
    for name, member in members.items():
        for row, count in member.mv.as_bag().items():
            tagged.add((name,) + row, count)
    return tagged


def versions(warehouse):
    members = getattr(warehouse, "algorithms", None)
    if members is None:
        return (warehouse.mv.version,)
    return tuple(member.mv.version for member in members.values())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(SINGLE_SOURCE + ["eca-unbuffered", "catalog"]),
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.integers(0, 10_000),
    st.sampled_from([1, 2]),
)
def test_recorded_view_states_are_never_written_again(
    name, workload_seed, k, schedule_seed, batch_k
):
    source = MemorySource(SCHEMAS, INITIAL)
    warehouse = build(name, source)
    workload = random_workload(
        SCHEMAS, k, seed=workload_seed, initial=INITIAL, respect_keys=True
    )
    kernel = SyncKernel({"source": source}, warehouse, workload, batch_k=batch_k)
    trace = kernel.trace
    copies = [deep_copy(warehouse)]
    stamps = [versions(warehouse)]
    schedule = RandomSchedule(schedule_seed)
    while True:
        available = kernel.available_actions()
        if not available:
            break
        kernel.step(schedule.choose(available))
        if len(trace.view_states) > len(copies):
            copies.append(deep_copy(warehouse))
            stamps.append(versions(warehouse))

    # Compared at the end: a write that edited the bag an earlier ws_j
    # aliases would have corrupted that state by now.
    assert trace.view_states == copies
    for j in range(1, len(stamps)):
        same = trace.view_states[j] is trace.view_states[j - 1]
        assert same == (stamps[j] == stamps[j - 1]), j


# --------------------------------------------------------------------- #
# (b) apply_delta against the whole-bag implementation it replaced
# --------------------------------------------------------------------- #


class WholeBagView:
    """``MaterializedView.apply_delta`` as it was: sum, check, install."""

    def __init__(self, contents):
        self.contents = contents.copy()
        self.dirty = set()

    def apply_delta(self, delta, on_negative):
        updated = self.contents + delta
        if not updated.is_nonnegative() and on_negative != "allow":
            if on_negative == "raise":
                raise ViewStateError("negative")
            clamped = SignedBag()
            for row, count in updated.items():
                if count > 0:
                    clamped.add(row, count)
            updated = clamped
        self.contents = updated
        for row, _ in delta.items():
            self.dirty.add(row)


rows = st.tuples(st.integers(0, 2), st.integers(0, 2))
deltas = st.dictionaries(rows, st.integers(-3, 3), max_size=4).map(SignedBag)
initials = st.dictionaries(rows, st.integers(1, 3), max_size=4).map(SignedBag)
policies = st.sampled_from(["raise", "clamp", "allow"])


def index_of(mv, keys):
    return {key: mv.rows_for_key(key) for key in keys}


def assert_index_matches_a_scan(mv):
    """Every present key and one absent key: the lookup finds what looking
    through ``as_bag()`` finds."""
    positions = mv.view.serving_key_positions()
    contents = mv.as_bag()
    present = {row_key(row, positions) for row in contents.rows()}
    assert set(mv.serving_keys()) == present
    absent = (9,) * (2 if positions is None else len(positions))
    for key in present | {absent}:
        scanned = SignedBag(
            {
                row: count
                for row, count in contents.items()
                if row_key(row, positions) == key
            }
        )
        assert mv.rows_for_key(key) == scanned, key


@settings(max_examples=150, deadline=None)
@given(initials, st.lists(st.tuples(deltas, policies), max_size=8))
def test_apply_delta_equals_the_whole_bag_reference(initial, steps):
    """Mixed policies on one view, so ``"allow"`` then ``"raise"`` (and
    ``"clamp"``) over contents left negative is drawn too."""
    mv = MaterializedView(KEYED, initial)
    reference = WholeBagView(initial)
    keys = [(w,) for w in range(3)]
    for delta, policy in steps:
        negative_before = {
            row for row, count in reference.contents.items() if count < 0
        }
        version, text, index = mv.version, "rendered", index_of(mv, keys)
        mv.encoded_contents = text
        try:
            reference.apply_delta(delta, policy)
        except ViewStateError:
            with pytest.raises(ViewStateError):
                mv.apply_delta(delta, on_negative=policy)
            # A rejected delta leaves everything exactly as it was.
            assert mv.version == version
            assert mv.encoded_contents == text
            assert index_of(mv, keys) == index
            assert mv.drain_dirty() == set()
        else:
            mv.apply_delta(delta, on_negative=policy)
            # The reference forgot rows an earlier "allow" left negative
            # and this "clamp" dropped without the delta naming them; a
            # changed row must be reported, so those (only) are extra.
            dirty = mv.drain_dirty()
            assert reference.dirty <= dirty <= reference.dirty | negative_before
            reference.dirty = set()
        assert mv.as_bag() == reference.contents
        assert_index_matches_a_scan(mv)


# --------------------------------------------------------------------- #
# (c) the index after any sequence of the three writes
# --------------------------------------------------------------------- #

KEYLESS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
WHOLE_ROW = View.natural_join("whole", KEYLESS, ["W", "Y"])
UNION = UnionView("union", [KEYED, View.natural_join("V2", SCHEMAS, ["Y", "W"])])

writes = st.one_of(
    st.tuples(st.just("apply_delta"), deltas, st.sampled_from(["clamp", "allow"])),
    st.tuples(st.just("replace"), initials),
    st.tuples(st.just("key_delete"), st.sampled_from(["r1", "r2"]), rows),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([KEYED, WHOLE_ROW, UNION]), initials, st.lists(writes, max_size=8))
def test_index_lookup_equals_a_scan_after_any_writes(view, initial, steps):
    assert (view.serving_key_positions() is None) == (view is not KEYED)
    mv = MaterializedView(view, initial)
    assert_index_matches_a_scan(mv)
    for kind, *args in steps:
        if kind == "key_delete" and view is not KEYED:
            continue  # needs a projected key; only the keyed view has one
        version, before = mv.version, mv.as_bag()
        getattr(mv, kind)(*args)
        assert (mv.version != version) or mv.as_bag() == before
        assert_index_matches_a_scan(mv)


# --------------------------------------------------------------------- #
# (d) folded histories against the eager recorder
# --------------------------------------------------------------------- #


def spanning(name, k, seed):
    """Two sources, one join-chain view across them (``repro runtime``'s
    multi-source topology)."""
    schemas = [
        RelationSchema("s0r", ("C0", "C1"), key=("C0",)),
        RelationSchema("s1r", ("C1", "C2"), key=("C2",)),
    ]
    sources, workload, state = {}, [], {}
    for index, schema in enumerate(schemas):
        initial = {schema.name: [(1, 1), (2, 2)]}
        sources[f"s{index}"] = MemorySource([schema], initial)
        state.update(sources[f"s{index}"].snapshot())
        workload += random_workload(
            [schema], k, seed=seed + index, initial=initial, respect_keys=True, domain=3
        )
    view = View.natural_join("V", schemas, ["s0r.C0", "s1r.C2"])
    options = {"owners": {"s0r": "s0", "s1r": "s1"}}
    if name == "multi-stored-copies":
        options["initial_copies"] = state
    algorithm = create_algorithm(name, view, evaluate_view(view, state), **options)
    return sources, algorithm, workload


def fanout_catalog(k, seed, share):
    """Two sources, three views each: an ECA class of two and an ECA-Key."""
    sources, algorithms, workload = {}, {}, []
    for index in range(2):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {f"{prefix}r1": INITIAL["r1"], f"{prefix}r2": INITIAL["r2"]}
        sources[prefix] = MemorySource(schemas, initial)
        state = sources[prefix].snapshot()
        for name, family in (("a", ECA), ("b", ECA), ("k", ECAKey)):
            view = View.natural_join(f"V{index}{name}", schemas, ["W", "Y"])
            algorithms[view.name] = family(view, evaluate_view(view, state))
        workload += random_workload(
            schemas, k, seed=seed + index, initial=initial, respect_keys=True
        )
    return sources, WarehouseCatalog(algorithms, share_compensation=share), workload


def warehouse_for(name, k, seed):
    """``(sources, warehouse, workload)`` for a registry name or a catalog."""
    if name.startswith("catalog"):
        return fanout_catalog(k, seed, share=name == "catalog-shared")
    if ALGORITHMS[name].multi_source:
        return spanning(name, k, seed)
    source = MemorySource(SCHEMAS, INITIAL)
    workload = random_workload(
        SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True
    )
    return {"source": source}, build(name, source), workload


def assert_same_history(recorder, checkable):
    folded, eager = recorder.trace, recorder.eager.trace
    assert recorder.action_log == recorder.eager.action_log
    assert [repr(e) for e in folded.events] == [repr(e) for e in eager.events]
    assert folded.view_states == eager.view_states
    assert sharing(folded.view_states) == sharing(eager.view_states)
    assert folded.source_states == eager.source_states
    assert relation_sharing(folded.source_states) == relation_sharing(
        eager.source_states
    )
    per_source = recorder.per_source_states
    assert per_source == recorder.eager.per_source_states
    for name, states in recorder.eager.per_source_states.items():
        assert relation_sharing(per_source[name]) == relation_sharing(states)
    ours, theirs = check_trace(checkable, folded), check_trace(checkable, eager)
    assert (ours.level(), ours.detail) == (theirs.level(), theirs.detail)
    assert check_cut_consistency(
        checkable, per_source, folded.view_states
    ) == check_cut_consistency(
        checkable, recorder.eager.per_source_states, eager.view_states
    )
    ours = staleness_profile(checkable, folded)
    theirs = staleness_profile(checkable, eager)
    assert (ours.lags, ours.unmatched) == (theirs.lags, theirs.unmatched)


@pytest.mark.parametrize("name", sorted(ALGORITHMS) + ["catalog", "catalog-shared"])
@settings(max_examples=30, deadline=None)
@given(
    frontend=st.sampled_from(["kernel", "runtime"]),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
    batch_k=st.sampled_from([1, 2]),
    faults=st.booleans(),
    crash=st.booleans(),
    shards=st.booleans(),
)
@example(
    frontend="runtime", seed=1, k=4, batch_k=2, faults=True, crash=True, shards=True
)
def test_folded_histories_equal_the_eager_reference(
    name, frontend, seed, k, batch_k, faults, crash, shards
):
    sources, warehouse, workload = warehouse_for(name, k, seed)
    checkable = warehouse if name.startswith("catalog") else warehouse.view
    with recording_both() as made, tempfile.TemporaryDirectory() as wal_dir:
        try:
            if frontend == "kernel":
                SyncKernel(sources, warehouse, workload, batch_k=batch_k).run(
                    RandomSchedule(seed)
                )
            else:
                run_concurrent(
                    sources,
                    warehouse,
                    workload,
                    clients=1,
                    client_reads=2,
                    seed=seed,
                    max_burst=3,
                    batch_k=batch_k,
                    faults=FaultPlan(latency=1.0, jitter=4.0, drop_rate=0.2)
                    if faults
                    else None,
                    wal_dir=wal_dir if crash else None,
                    snapshot_every=4,
                    crash=CrashPolicy(mode="mid-uqs", seed=seed) if crash else None,
                    shards=2 if shards and name.startswith("catalog") else None,
                    partitioner="range",  # one source's views per shard
                )
        except SimulationError:
            pass  # a deferred family that cannot quiesce: its history so far
    assume(made)
    (recorder,) = made
    assert_same_history(recorder, checkable)
