"""Property tests for the columnar batch layer.

Two contracts the columnar refactor must honor on *all* inputs:

1. Every batch operator (`batch_select`, `batch_project`, `batch_join`,
   `batch_union`, `batch_negate`) is extensionally equal to the obvious
   per-tuple reference computed over ``SignedBag`` items — consolidation
   order and internal row layout may differ, but ``to_bag()`` may not.
2. The columnar round trip is lossless: ``SignedBag.to_columns`` /
   ``SignedBag.from_columns`` compose to the identity, for any signed
   bag, and the scalar engine oracle (`evaluate_term_scalar`) agrees
   with the batched engine on whole queries (the same divergence check
   the CI ``bench-smoke`` job runs on the measured workload).

The batch-k=1 / identity-codec legacy-equivalence properties live at the
bottom: a ``run_concurrent`` at ``batch_k=1`` and ``wire_codec=None``
must produce byte-for-byte the trace, action log, and byte accounting
the pre-batching runtime produced (asserted structurally: no UpdateBatch
ever appears, no ``@k`` action suffix, sizer-based byte counts).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eca import ECA
from repro.errors import UpdateError
from repro.kernel.conformance import replay_concurrent
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import (
    batch_join,
    batch_negate,
    batch_project,
    batch_select,
    batch_union,
    bucket_map,
)
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_query, evaluate_query_scalar
from repro.relational.expressions import BoundOperand, Query
from repro.relational.schema import RelationSchema
from repro.relational.tuples import SignedTuple
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.runtime.harness import run_concurrent
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert

rows2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
counts = st.integers(-2, 2).filter(bool)
signed_relation = st.lists(st.tuples(rows2, counts), max_size=6)


def to_bag(pairs):
    bag = SignedBag()
    for row, count in pairs:
        bag.add(row, count)
    return bag


def resolve2(name):
    return {"A": 0, "B": 1}[name]


# --------------------------------------------------------------------- #
# Round trip
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(signed_relation)
def test_columns_round_trip_is_identity(pairs):
    bag = to_bag(pairs)
    columns, cts = bag.to_columns(width=2)
    assert SignedBag.from_columns(columns, cts) == bag
    assert ColumnBatch.from_bag(bag, 2).to_bag() == bag


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.integers(-2, 2).filter(bool))
def test_from_columns_applies_the_coefficient(pairs, coefficient):
    bag = to_bag(pairs)
    columns, cts = bag.to_columns(width=2)
    scaled = SignedBag.from_columns(columns, cts, coefficient=coefficient)
    expected = SignedBag()
    for row, count in bag.items():
        expected.add(row, count * coefficient)
    assert scaled == expected


# --------------------------------------------------------------------- #
# Operators vs the per-tuple reference
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.integers(0, 3))
def test_batch_select_matches_per_tuple_filter(pairs, threshold):
    bag = to_bag(pairs)
    condition = Comparison(Attr("A"), ">", Const(threshold))
    batch = ColumnBatch.from_bag(bag, 2)
    got = batch_select(batch, condition, resolve2).to_bag()
    expected = SignedBag()
    for row, count in bag.items():
        if row[0] > threshold:
            expected.add(row, count)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, st.permutations([0, 1]))
def test_batch_project_matches_per_tuple_projection(pairs, positions):
    bag = to_bag(pairs)
    batch = ColumnBatch.from_bag(bag, 2)
    got = batch_project(batch, list(positions)).to_bag()
    expected = SignedBag()
    for row, count in bag.items():
        expected.add(tuple(row[i] for i in positions), count)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_join_matches_per_tuple_hash_join(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_join(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2), [(1, 0)]
    ).to_bag()
    expected = SignedBag()
    for lrow, lcount in left.items():
        for rrow, rcount in right.items():
            if lrow[1] == rrow[0]:
                expected.add(lrow + rrow, lcount * rcount)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_join_without_keys_is_the_cartesian_product(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_join(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2), []
    ).to_bag()
    expected = SignedBag()
    for lrow, lcount in left.items():
        for rrow, rcount in right.items():
            expected.add(lrow + rrow, lcount * rcount)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(signed_relation, signed_relation)
def test_batch_union_matches_bag_addition(left_pairs, right_pairs):
    left, right = to_bag(left_pairs), to_bag(right_pairs)
    got = batch_union(
        ColumnBatch.from_bag(left, 2), ColumnBatch.from_bag(right, 2)
    ).to_bag()
    assert got == left + right


@settings(max_examples=60, deadline=None)
@given(signed_relation)
def test_batch_negate_matches_bag_negation(pairs):
    bag = to_bag(pairs)
    got = batch_negate(ColumnBatch.from_bag(bag, 2)).to_bag()
    assert got == SignedBag() - bag


# --------------------------------------------------------------------- #
# Whole-query divergence check (what bench-smoke runs on the measured
# workload)
# --------------------------------------------------------------------- #

SCHEMAS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
    RelationSchema("r3", ("Y", "Z")),
]

relation = st.lists(rows2, max_size=5)
states = st.fixed_dictionaries({"r1": relation, "r2": relation, "r3": relation})


@settings(max_examples=40, deadline=None)
@given(states, st.booleans())
def test_batched_engine_agrees_with_scalar_oracle(state, with_condition):
    extra = Comparison(Attr("W"), ">", Attr("Z")) if with_condition else None
    view = View.natural_join("V", SCHEMAS, ["W", "Z"], extra)
    bags = {name: SignedBag.from_rows(rows) for name, rows in state.items()}
    query = view.as_query()
    assert evaluate_query(query, bags) == evaluate_query_scalar(query, bags)


# --------------------------------------------------------------------- #
# Grouped evaluation: one plan run per (shape, bound mask) class
# --------------------------------------------------------------------- #

R1, R2, R3 = SCHEMAS
_A, _B = R2.aliased("a"), R2.aliased("b")
_UNION = UnionView(
    "U",
    [
        View.natural_join("U1", [R1, R2], ["W", "Y"]),
        (-1, View.natural_join("U2", [R2, R3], ["X", "Z"])),
    ],
)

#: One term per shape; every drawn term derives from one of these, so
#: terms of one base share its shape object and fall into its classes.
BASE_TERMS = [
    view.as_query().terms[0]
    for view in (
        # Three operands, a key per step, a filter decidable only at the end.
        View.natural_join(
            "chain", SCHEMAS, ["W", "Z"], Comparison(Attr("W"), ">=", Attr("Z"))
        ),
        # A filter on the first operand alone (step-0 mask).
        View.natural_join(
            "filtered", [R1, R2], ["W", "Y"], Comparison(Attr("W"), ">", Const(0))
        ),
        # No equality between the operands: products, then a mask.
        View("product", [R1, R3], ["W", "Z"], Comparison(Attr("W"), "<", Attr("Z"))),
        # A self-join through aliases: both operands read stored r2.
        View("self", [_A, _B], ["a.X", "b.Y"], Comparison(Attr("a.Y"), "=", Attr("b.X"))),
        # Two equalities bridging the same step (a two-column key).
        View(
            "twokeys",
            [_A, _B],
            ["a.X"],
            Comparison(Attr("a.X"), "=", Attr("b.X"))
            & Comparison(Attr("a.Y"), "=", Attr("b.Y")),
        ),
    )
] + list(_UNION.as_query().terms)

signed_rows = st.tuples(rows2, st.sampled_from([1, -1]))
coefficients = st.integers(-3, 3).filter(bool)


@st.composite
def term_classes_drawn(draw):
    """One base term, one bound mask, one to four terms over them."""
    base = draw(st.sampled_from(BASE_TERMS))
    mask = draw(st.lists(st.booleans(), min_size=len(base.operands), max_size=len(base.operands)))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        operands = tuple(
            BoundOperand(operand.schema, SignedTuple(*draw(signed_rows)))
            if bound
            else operand
            for operand, bound in zip(base.operands, mask)
        )
        # ``with_operands`` admits +/-1 only; the engine folds whatever
        # coefficient a term carries, so reach past it for +/-2 and +/-3.
        term = base._derive(operands, draw(coefficients))
        terms.extend([term] * draw(st.integers(1, 2)))
    return terms


@st.composite
def grouped_queries(draw):
    terms = [t for group in draw(st.lists(term_classes_drawn(), min_size=1, max_size=4)) for t in group]
    return Query(draw(st.permutations(terms)))


signed_states = st.fixed_dictionaries(
    {"r1": signed_relation, "r2": signed_relation, "r3": signed_relation}
)


@settings(max_examples=150, deadline=None)
@given(signed_states, grouped_queries())
def test_grouped_evaluation_equals_the_sum_of_its_terms(pairs, query):
    """``evaluate_query`` == sum of ``Term.evaluate`` == the scalar plan,
    whatever the mix of shapes, bound masks, signs and coefficients —
    including classes whose bound operands are not adjacent, whose first
    operand is free, and fully bound ones."""
    state = {name: to_bag(rows) for name, rows in pairs.items()}
    expected = SignedBag()
    for term in query.terms:
        expected.add_bag(term.evaluate(state))
    assert evaluate_query(query, state) == expected
    assert evaluate_query_scalar(query, state) == expected


# --------------------------------------------------------------------- #
# The source's kept batches and bucket maps: maintained in place, always
# the relation they stand for
# --------------------------------------------------------------------- #

relation_names = st.sampled_from(["r1", "r2", "r3"])
#: ``1``, ``1.0`` and ``True`` are one key to a bag and to a bucket map.
spelled_rows = st.tuples(*[st.sampled_from([0, 1, 1.0, True, 2, 3])] * 2)


@st.composite
def reordered_queries(draw):
    """Chain terms whose bound operand sits in the middle or last, so the
    plan joins it first and probes both free relations from it."""
    base = BASE_TERMS[0]
    mask = draw(st.sampled_from([(False, True, False), (False, False, True)]))
    terms = [
        base._derive(
            tuple(
                BoundOperand(operand.schema, SignedTuple(*draw(signed_rows)))
                if bound
                else operand
                for operand, bound in zip(base.operands, mask)
            ),
            draw(st.sampled_from([1, -1])),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    return Query(terms)


source_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), relation_names, spelled_rows),
        # A delete names its victim by rank among the relation's current
        # rows, so that it usually hits; on an empty relation it misses.
        st.tuples(st.just("delete"), relation_names, st.integers(0, 5)),
        # Every copy of a victim deleted, then the row inserted again,
        # perhaps spelled differently (1.0 for 1).
        st.tuples(st.just("reinsert"), relation_names, st.tuples(st.integers(0, 5), st.booleans())),
        st.tuples(st.just("load"), relation_names, st.lists(spelled_rows, max_size=3)),
        st.tuples(st.just("evaluate"), grouped_queries(), st.none()),
        st.tuples(st.just("evaluate"), reordered_queries(), st.none()),
    ),
    min_size=2,
    max_size=12,
)


def respelled(row):
    return tuple(float(value) if value is True or value == 1 else value for value in row)


def assert_kept_state(source):
    """Each kept batch is, as a bag, its relation — spelled alike, so
    ``repr`` and not only ``==`` — and each bucket map lists exactly the
    positions of the batch that hold its key."""
    for name, batch in source._batches.items():
        assert repr(batch.to_bag()) == repr(source.relation(name)), name
        for probe, buckets in source._indexes.get(name, {}).items():
            assert buckets == bucket_map(batch, probe), (name, probe)
    assert set(source._indexes) <= set(source._batches)


@settings(max_examples=80, deadline=None)
@given(states, source_operations)
def test_memory_source_answers_from_its_current_relations(initial, operations):
    """However updates, loads and evaluations interleave, an answer is
    ``evaluate_query`` over a fresh snapshot — a batch or bucket map that
    fell behind its relation would answer from the past — and evaluating
    changes nothing a snapshot shows (a batch an operator edited in place
    would)."""
    source = MemorySource(SCHEMAS, initial)
    for kind, target, argument in operations:
        # Reading every relation back after every step makes each of them
        # hold a batch when the next step arrives.
        for schema in SCHEMAS:
            whole = View(schema.name, [schema], schema.attributes).as_query()
            assert source.evaluate(whole) == source.relation(schema.name)
        if kind == "evaluate":
            before = source.snapshot()
            assert source.evaluate(target) == evaluate_query(target, before)
            assert source.snapshot() == before
            assert source.evaluate(target) == target.evaluate(before)
        elif kind == "load":
            source.load(target, argument)
        elif kind == "insert":
            source.apply_update(insert(target, argument))
        else:
            present = sorted(source.relation(target).rows())
            if not present:
                with pytest.raises(UpdateError):
                    source.apply_update(delete(target, (0, 0)))
            elif kind == "delete":
                source.apply_update(delete(target, present[argument % len(present)]))
            else:
                rank, respell = argument
                victim = present[rank % len(present)]
                for _ in range(source.relation(target).multiplicity(victim)):
                    source.apply_update(delete(target, victim))
                assert_kept_state(source)
                source.apply_update(insert(target, respelled(victim) if respell else victim))
        assert_kept_state(source)


# --------------------------------------------------------------------- #
# batch_k=1 + identity codec == the legacy protocol, byte for byte
# --------------------------------------------------------------------- #


def _run(seed, batch_k, wire_codec=None):
    schema_r = RelationSchema("r", ("A", "B"), key=("A",))
    schema_s = RelationSchema("s", ("B", "C"), key=("C",))
    source = MemorySource(
        [schema_r, schema_s], {"r": [(1, 2)], "s": [(2, 9)]}
    )
    view = View.natural_join("v", [schema_r, schema_s], projection=("A", "C"))
    workload = [
        insert("r", (5, 2)),
        insert("s", (2, 11)),
        insert("r", (6, 2)),
        insert("s", (4, 7)),
        insert("r", (7, 4)),
    ]
    result = run_concurrent(
        {"src": source},
        ECA(view),
        workload,
        seed=seed,
        max_burst=3,
        batch_k=batch_k,
        wire_codec=wire_codec,
    )
    return result, workload


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 400))
def test_batch_k1_reproduces_the_legacy_run_exactly(seed):
    """batch_k=1 must be indistinguishable from not passing batch_k at all."""
    legacy, _ = _run(seed, batch_k=1)
    default, _ = _run(seed, batch_k=1, wire_codec="none")
    assert legacy.action_log == default.action_log
    assert all("@" not in a for a in legacy.action_log)
    assert [(e.kind, e.detail) for e in legacy.trace.events] == [
        (e.kind, e.detail) for e in default.trace.events
    ]
    assert legacy.final_view == default.final_view
    assert {n: s.sent_bytes for n, s in legacy.channel_stats.items()} == {
        n: s.sent_bytes for n, s in default.channel_stats.items()
    }


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 400), st.sampled_from([2, 3, 8]))
def test_batched_runs_converge_and_replay_on_the_sync_kernel(seed, k):
    batched, workload = _run(seed, batch_k=k)
    legacy, _ = _run(seed, batch_k=1)
    # Same final state regardless of coalescing ...
    assert batched.final_view == legacy.final_view
    # ... and the batched action log replays exactly on the sync kernel.
    schema_r = RelationSchema("r", ("A", "B"), key=("A",))
    schema_s = RelationSchema("s", ("B", "C"), key=("C",))
    twin = MemorySource([schema_r, schema_s], {"r": [(1, 2)], "s": [(2, 9)]})
    view = View.natural_join("v", [schema_r, schema_s], projection=("A", "C"))
    kernel = replay_concurrent(
        batched.action_log, {"src": twin}, ECA(view), {"src": workload}
    )
    assert [(e.kind, e.detail) for e in batched.trace.events] == [
        (e.kind, e.detail) for e in kernel.trace.events
    ]
    assert kernel.algorithm.view_state() == batched.final_view
