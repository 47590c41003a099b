"""Property test: a plan's carried layout loses nothing a later step reads.

A :class:`~repro.relational.engine.JoinPlan` works out, per step, which
product positions the working batch still holds — those a later step's
keys or filters, or the projection, read — and both batch runners
gather only those.  Over drawn shapes (one to three operands, self-joins
through aliases, equalities that become keys, comparisons, ``Or`` and
``Not`` that stay filters, projections that repeat and reorder columns),
drawn bound masks and kept sources whose batches hold deleted rows at
count 0 (``None`` in them, which an ordering comparison would raise on):

- the per-term runner (``evaluate_term``), over the kept batches and over
  a fresh transposition, equals ``evaluate_term_scalar`` (the scalar
  oracle, product positions throughout) and ``Term.evaluate`` (the
  cross-product reference);
- a class of terms that differ in their bound tuples and coefficients,
  through the grouped runner (``evaluate_query``), equals
  ``Query.evaluate``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.bag import SignedBag
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import And, Comparison, Const, Not, Or, attr
from repro.relational.engine import (
    evaluate_query,
    evaluate_term,
    evaluate_term_scalar,
    join_plan,
    term_classes,
)
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import RelationSchema
from repro.relational.tuples import SignedTuple

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
POOL = [R1, R2, R3, R2.aliased("e1"), R2.aliased("e2")]
BASES = ("r1", "r2", "r3")

values = st.integers(0, 2)
operators = st.sampled_from(["=", "=", "!=", "<", "<=", ">"])


@st.composite
def terms(draw):
    """A term over one to three operands, and its bound mask."""
    schemas = draw(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique_by=lambda s: s.name)
    )
    names = [f"{schema.name}.{column}" for schema in schemas for column in schema.attributes]
    names = st.sampled_from(names)
    comparison = st.one_of(
        st.builds(lambda a, op, b: Comparison(attr(a), op, attr(b)), names, operators, names),
        st.builds(lambda a, op, c: Comparison(attr(a), op, Const(c)), names, operators, values),
    )
    conjunct = st.one_of(
        comparison,
        comparison,
        comparison,
        st.builds(Not, comparison),
        st.builds(lambda a, b: Or(a, b), comparison, comparison),
    )
    conjuncts = draw(st.lists(conjunct, max_size=4))
    condition = And(*conjuncts) if len(conjuncts) > 1 else (conjuncts or [None])[0]
    projection = draw(st.lists(names, min_size=1, max_size=4))
    mask = tuple(draw(st.lists(st.booleans(), min_size=len(schemas), max_size=len(schemas))))
    return Term([RelationOperand(s) for s in schemas], projection, condition), mask


def bindings(term, mask):
    """A term of ``term``'s shape with the operands of ``mask`` bound."""
    return st.builds(
        lambda tuples, coefficient: term.with_operands(
            [
                BoundOperand(op.schema, tuples[index]) if bound else op
                for index, (op, bound) in enumerate(zip(term.operands, mask))
            ],
            coefficient,
        ),
        st.lists(
            st.builds(SignedTuple, st.tuples(values, values), st.sampled_from([1, -1])),
            min_size=len(mask),
            max_size=len(mask),
        ),
        st.sampled_from([1, -1]),
    )


live_rows = st.lists(st.tuples(st.tuples(values, values), st.integers(1, 2)), max_size=5)
dead_rows = st.lists(st.tuples(st.none() | values, st.none() | values), max_size=3)


@st.composite
def kept_sources(draw):
    """``(state, batches)``: each relation's bag, and a kept batch of its
    rows with deleted rows at count 0 spliced in among them."""
    state, batches = {}, {}
    for name in BASES:
        bag = state[name] = SignedBag()
        for row, count in draw(live_rows):
            bag.add(row, count)
        kept = list(bag.items())
        for row in draw(dead_rows):
            kept.insert(draw(st.integers(0, len(kept))), (row, 0))
        batches[name] = ColumnBatch(
            [[row[0] for row, _ in kept], [row[1] for row, _ in kept]],
            [count for _, count in kept],
        )
    return state, batches


@settings(max_examples=300, deadline=None)
@given(st.data(), terms(), kept_sources())
def test_both_runners_equal_the_oracles_whatever_the_layout_drops(data, drawn, source):
    term, mask = drawn
    state, batches = source
    indexes = {}
    plan = join_plan(term.shape, mask)
    assert plan.steps[-1].layout == plan.positions
    members = data.draw(st.lists(bindings(term, mask), min_size=1, max_size=3))
    for member in members:
        expected = member.evaluate(state)
        assert evaluate_term_scalar(member, state) == expected
        assert evaluate_term(member, state, dict(batches), indexes) == expected
        assert evaluate_term(member, state) == expected
    query = Query(members)
    if len(members) > 1 and any(mask):
        # One class, so the grouped runner takes all of it.
        assert len(term_classes(members)) == 1
    assert evaluate_query(query, state, dict(batches), indexes) == query.evaluate(state)
