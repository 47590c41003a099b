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
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.eca import ECA
from repro.core.eca_key import ECAKey
from repro.core.lazy import LCA
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.errors import ViewStateError
from repro.kernel.sync import SyncKernel
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
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
