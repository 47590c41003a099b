"""Unit tests for the hash-join evaluation engine."""

import pytest

from repro.errors import ExpressionError
from repro.relational import engine
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import bucket_map
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import Attr, Comparison, Const, Not, Or
from repro.relational.engine import evaluate_query, evaluate_term, evaluate_view, join_plan
from repro.relational.expressions import Query, RelationOperand, Term
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, SignedTuple
from repro.relational.views import View


@pytest.fixture
def schemas():
    return [
        RelationSchema("r1", ("W", "X")),
        RelationSchema("r2", ("X", "Y")),
        RelationSchema("r3", ("Y", "Z")),
    ]


@pytest.fixture
def state():
    return {
        "r1": SignedBag.from_rows([(1, 2), (4, 2), (7, 9)]),
        "r2": SignedBag.from_rows([(2, 5), (2, 6), (9, 5)]),
        "r3": SignedBag.from_rows([(5, 0), (6, 8)]),
    }


def chain_view(schemas, projection=("W", "Z")):
    return View.natural_join("V", schemas, projection)


class TestEquivalenceWithReference:
    def test_chain_join_matches_reference(self, schemas, state):
        view = chain_view(schemas)
        term = view.as_query().terms[0]
        assert evaluate_term(term, state) == term.evaluate(state)

    def test_bound_operand(self, schemas, state):
        view = chain_view(schemas)
        query = view.substitute("r2", SignedTuple((2, 5)))
        assert evaluate_query(query, state) == query.evaluate(state)

    def test_negative_bound_tuple(self, schemas, state):
        view = chain_view(schemas)
        query = view.substitute("r1", SignedTuple((1, 2), MINUS))
        assert evaluate_query(query, state) == query.evaluate(state)

    def test_duplicates_and_multiplicities(self, schemas):
        state = {
            "r1": SignedBag({(1, 2): 3}),
            "r2": SignedBag({(2, 5): 2}),
            "r3": SignedBag({(5, 0): 1}),
        }
        view = chain_view(schemas)
        term = view.as_query().terms[0]
        result = evaluate_term(term, state)
        assert result.multiplicity((1, 0)) == 6
        assert result == term.evaluate(state)

    def test_negative_multiplicities_multiply(self, schemas):
        state = {
            "r1": SignedBag({(1, 2): -1}),
            "r2": SignedBag({(2, 5): 2}),
            "r3": SignedBag({(5, 0): 1}),
        }
        term = chain_view(schemas).as_query().terms[0]
        result = evaluate_term(term, state)
        assert result.multiplicity((1, 0)) == -2
        assert result == term.evaluate(state)


class TestConditionHandling:
    def test_non_equality_residual_applied(self, schemas, state):
        view = View.natural_join(
            "V", schemas, ["W", "Z"], Comparison(Attr("W"), ">", Attr("Z"))
        )
        term = view.as_query().terms[0]
        assert evaluate_term(term, state) == term.evaluate(state)

    def test_disjunctive_condition_not_decomposed(self, schemas, state):
        condition = Or(
            Comparison(Attr("r1.X"), "=", Attr("r2.X")),
            Comparison(Attr("W"), "=", Const(7)),
        )
        term = Term(
            [RelationOperand(s) for s in schemas[:2]], ("W",), condition
        )
        small = {"r1": state["r1"], "r2": state["r2"]}
        assert evaluate_term(term, small) == term.evaluate(small)

    def test_negated_equality_is_filter_not_join(self, schemas, state):
        condition = Not(Comparison(Attr("r1.X"), "=", Attr("r2.X")))
        term = Term([RelationOperand(s) for s in schemas[:2]], ("W",), condition)
        small = {"r1": state["r1"], "r2": state["r2"]}
        assert evaluate_term(term, small) == term.evaluate(small)

    def test_single_operand_constant_filter(self, schemas, state):
        term = Term(
            [RelationOperand(schemas[0])],
            ("W",),
            Comparison(Attr("W"), ">", Const(3)),
        )
        result = evaluate_term(term, state)
        assert result == SignedBag.from_rows([(4,), (7,)])

    def test_same_relation_attribute_equality(self, schemas):
        # W = X within r1 is a filter, not a join edge.
        term = Term(
            [RelationOperand(schemas[0])],
            ("W",),
            Comparison(Attr("W"), "=", Attr("X")),
        )
        state = {"r1": SignedBag.from_rows([(2, 2), (1, 3)])}
        assert evaluate_term(term, state) == SignedBag.from_rows([(2,)])

    def test_cartesian_when_no_join_edge(self, schemas):
        term = Term([RelationOperand(schemas[0]), RelationOperand(schemas[2])], ("W", "Z"))
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r3": SignedBag.from_rows([(5, 0), (6, 8)]),
        }
        result = evaluate_term(term, state)
        assert result == SignedBag.from_rows([(1, 0), (1, 8)])


class TestErrors:
    def test_missing_relation(self, schemas):
        term = chain_view(schemas).as_query().terms[0]
        with pytest.raises(ExpressionError):
            evaluate_term(term, {})


class TestQueryAndView:
    def test_query_sums_terms(self, schemas, state):
        view = chain_view(schemas)
        q = view.as_query() - view.as_query()
        assert evaluate_query(q, state).is_empty()

    def test_evaluate_view_equals_reference(self, schemas, state):
        view = chain_view(schemas)
        assert evaluate_view(view, state) == view.evaluate(state)

    def test_empty_join_short_circuits(self, schemas):
        state = {
            "r1": SignedBag(),
            "r2": SignedBag.from_rows([(2, 5)]),
            "r3": SignedBag.from_rows([(5, 0)]),
        }
        assert evaluate_view(chain_view(schemas), state).is_empty()


class TestGroupedClasses:
    """``evaluate_query`` runs each (shape, bound mask) class as one plan."""

    def _bind(self, view, **rows):
        query = view.as_query()
        for relation, row in rows.items():
            query = query.substitute(relation, SignedTuple(row))
        return query.terms[0]

    def test_non_adjacent_bound_operands_stay_with_their_term(self, schemas):
        # r1 and r3 bound, r2 free.  Term A binds (1,2) and (5,0), term B
        # binds (4,9) and (6,8); pairing A's r1 tuple with B's r3 tuple
        # ((1,2) |x| (2,6) |x| (6,8)) would add a [1,8] no term produces.
        view = chain_view(schemas)
        state = {"r2": SignedBag.from_rows([(2, 5), (2, 6), (9, 6)])}
        query = Query(
            [
                self._bind(view, r1=(1, 2), r3=(5, 0)),
                self._bind(view, r1=(4, 9), r3=(6, 8)),
            ]
        )
        assert evaluate_query(query, state) == SignedBag.from_rows([(1, 0), (4, 8)])
        assert evaluate_query(query, state) == query.evaluate(state)

    def test_first_operand_free_then_bound(self, schemas, state):
        view = chain_view(schemas)
        query = Query(
            [
                self._bind(view, r2=(2, 5)),
                self._bind(view, r2=(9, 6)).negate(),
                self._bind(view, r2=(3, 3)),
            ]
        )
        assert evaluate_query(query, state) == query.evaluate(state)
        assert evaluate_query(query, state) == SignedBag(
            {(1, 0): 1, (4, 0): 1, (7, 8): -1}
        )

    def test_fully_bound_class_needs_no_state(self, schemas):
        view = chain_view(schemas)
        query = Query(
            [
                self._bind(view, r1=(1, 2), r2=(2, 5), r3=(5, 0)),
                self._bind(view, r1=(1, 2), r2=(2, 5), r3=(6, 0)),
                self._bind(view, r1=(3, 2), r2=(2, 5), r3=(5, 7)).negate(),
            ]
        )
        assert evaluate_query(query, {}) == SignedBag({(1, 0): 1, (3, 7): -1})

    def test_a_class_is_one_join_per_step(self, schemas, state, monkeypatch):
        calls = []
        real = engine.join_indices

        def counting(left, right, keys=(), buckets=None):
            calls.append((len(left.counts), buckets is not None))
            return real(left, right, keys, buckets)

        monkeypatch.setattr(engine, "join_indices", counting)
        view = chain_view(schemas)
        for bound, row in (("r1", lambda w: (w, 2)), ("r3", lambda w: (5 + w % 2, w))):
            calls.clear()
            query = Query([self._bind(view, **{bound: row(w)}) for w in range(5)])
            assert evaluate_query(query, state) == query.evaluate(state)
            # Five terms, two free operands: two probes of a bucket map,
            # the first from the five bound rows — not ten joins over
            # one-row batches, and never r1 joined whole with r2.
            assert len(calls) == 2 and calls[0] == (5, True) and calls[1][1]

    def test_source_batches_are_filled_and_reused(self, schemas, state):
        """And so are the bucket maps probed on them."""
        view = chain_view(schemas)
        query = Query([self._bind(view, r1=(w, 2)) for w in range(3)])
        batches, indexes = {}, {}
        first = evaluate_query(query, state, batches, indexes)
        assert sorted(batches) == ["r2", "r3"]
        # r2 probed on X (its position 0) from r1, r3 on Y from r2.
        assert {name: sorted(kept) for name, kept in indexes.items()} == {
            "r2": [(0,)],
            "r3": [(0,)],
        }
        kept = dict(batches)
        buckets = indexes["r2"][(0,)]
        assert evaluate_query(query, state, batches, indexes) == first
        assert all(batches[name] is kept[name] for name in kept)
        assert indexes["r2"][(0,)] is buckets
        assert batches["r2"].to_bag() == state["r2"]
        assert buckets == bucket_map(batches["r2"], (0,)) == {2: [0, 1], 9: [2]}


class TestJoinPlan:
    """One planner: bound operands first, then the free operands an
    equality connects to what is joined, product order otherwise."""

    @pytest.mark.parametrize(
        "bound, order",
        [
            ((False, False, False), [0, 1, 2]),
            ((True, False, False), [0, 1, 2]),
            ((False, True, False), [1, 0, 2]),
            ((False, False, True), [2, 1, 0]),
            ((True, False, True), [0, 2, 1]),
            ((False, True, True), [1, 2, 0]),
            ((True, True, True), [0, 1, 2]),
        ],
    )
    def test_bound_operands_first_then_connected_ones(self, schemas, bound, order):
        plan = join_plan(chain_view(schemas).as_query().terms[0].shape, bound)
        assert [step.operand for step in plan.steps] == order
        assert plan.bound == sum(bound)
        # Every conjunct lands at the step of the last operand it reads.
        placed = [len(step.conjuncts) for step in plan.steps]
        assert sum(placed) == 2 and placed[0] == 0

    def test_a_free_operand_joins_where_an_equality_connects_it(self, schemas):
        r1, r2, r3 = schemas
        # r1 and r3 share no attribute: from bound r1 the plan probes r2
        # before r3; with nothing bound it keeps product order.
        view = View.natural_join("V", [r1, r3, r2], ["W", "Z"])
        shape = view.as_query().terms[0].shape
        plan = join_plan(shape, (True, False, False))
        assert [step.operand for step in plan.steps] == [0, 2, 1]
        assert all(step.keys for step in plan.steps[1:])
        assert [step.operand for step in join_plan(shape, (False,) * 3).steps] == [0, 1, 2]
        state = {
            "r1": SignedBag.from_rows([(1, 2), (4, 9)]),
            "r2": SignedBag.from_rows([(2, 5), (9, 6)]),
            "r3": SignedBag.from_rows([(5, 0), (6, 8)]),
        }
        for query in (view.as_query(), view.substitute("r1", SignedTuple((4, 9)))):
            assert evaluate_query(query, state) == query.evaluate(state)
        assert evaluate_view(view, state) == SignedBag.from_rows([(1, 0), (4, 8)])

    def test_no_equality_keeps_product_order(self, schemas):
        term = Term([RelationOperand(schemas[0]), RelationOperand(schemas[2])], ("W", "Z"))
        plan = join_plan(term.shape, (False, True))
        assert [step.operand for step in plan.steps] == [1, 0]
        assert not plan.steps[1].keys

    @pytest.mark.parametrize(
        "bound, widths",
        [
            ((False, False, False), [2, 2, 2]),
            ((True, False, False), [2, 2, 2]),
            ((False, True, False), [2, 2, 2]),
            ((False, False, True), [2, 2, 2]),
            ((True, False, True), [2, 4, 2]),
            ((False, True, True), [2, 2, 2]),
            ((True, True, False), [2, 2, 2]),
            ((True, True, True), [2, 2, 2]),
        ],
    )
    def test_each_step_carries_what_later_steps_read(self, schemas, bound, widths):
        # Example 6: a step's batch holds W (projected) and the key the
        # next step probes on, never the whole product (2, 4, 6 wide).
        # With r1 and r3 bound, r3's Y and Z ride along until r2 is probed
        # on X and Y.
        plan = join_plan(chain_view(schemas).as_query().terms[0].shape, bound)
        assert [len(step.layout) for step in plan.steps] == widths
        assert plan.steps[-1].layout == plan.positions
        if sum(bound) == 1:
            # One bound operand: each probe gathers 1 + 1 columns.
            assert [len(step.left) + len(step.right) for step in plan.steps[1:]] == [2, 2]

    def test_a_column_only_a_later_filter_reads_is_carried(self, schemas):
        r1, r2, _ = schemas
        e1, e2 = r2.aliased("e1"), r2.aliased("e2")
        # W is neither a key nor projected: only the last step's filter
        # reads it, so the first two steps carry it and the last drops it.
        condition = (
            Comparison(Attr("r1.X"), "=", Attr("e1.X"))
            & Comparison(Attr("e1.Y"), "=", Attr("e2.X"))
            & Comparison(Attr("W"), ">", Attr("e2.Y"))
        )
        view = View("V", [r1, e1, e2], ["e2.Y"], condition)
        shape = view.as_query().terms[0].shape
        plan = join_plan(shape, (False, False, False))
        w = plan.product.resolve("W")
        assert [w in step.layout for step in plan.steps] == [True, True, False]
        assert [len(step.layout) for step in plan.steps] == [2, 2, 1]
        state = {
            "r1": SignedBag.from_rows([(1, 0), (3, 0), (2, 1)]),
            "r2": SignedBag.from_rows([(0, 1), (1, 2), (1, 0), (0, 0)]),
        }
        queries = [
            view.as_query(),
            view.substitute("r1", SignedTuple((3, 0))),
            view.substitute("r2", SignedTuple((1, 0), MINUS)),
            Query(
                [
                    term
                    for w in (1, 2, 3)
                    for term in view.substitute("r1", SignedTuple((w, 0))).terms
                ]
            ),
        ]
        for query in queries:
            assert evaluate_query(query, state) == query.evaluate(state)
        assert evaluate_query(view.as_query(), state) == SignedBag({(0,): 5, (1,): 2, (2,): 1})

    def test_a_projection_that_repeats_and_reorders_columns(self, schemas, state):
        view = chain_view(schemas, ("Z", "W", "Z"))
        shape = view.as_query().terms[0].shape
        for bound in ((False,) * 3, (True, False, False), (False, False, True)):
            plan = join_plan(shape, bound)
            assert plan.steps[-1].layout == plan.positions
            assert len(set(plan.positions)) == 2 and len(plan.steps[-2].layout) == 2
        queries = [view.as_query()] + [
            view.substitute(name, SignedTuple(row))
            for name, row in (("r1", (4, 2)), ("r3", (5, 0)))
        ]
        queries.append(Query([term for q in queries[1:] for term in q.terms] * 2))
        for query in queries:
            assert evaluate_query(query, state) == query.evaluate(state)
        assert evaluate_view(view, state) == SignedBag.from_rows(
            [(0, 1, 0), (8, 1, 8), (0, 4, 0), (8, 4, 8), (0, 7, 0)]
        )

    def test_one_plan_per_shape_and_mask(self, schemas):
        shape = chain_view(schemas).as_query().terms[0].shape
        plan = join_plan(shape, (False, True, False))
        assert join_plan(shape, (False, True, False)) is plan
        assert shape.plans == {(False, True, False): plan}
        assert not hasattr(shape, "plan")

    def test_a_deleted_row_reaches_no_filter(self, schemas):
        # A kept batch holding a row at count 0 (deleted) whose W would
        # make ``W > 0`` (read whole) or ``W > Z`` (probed) raise: the
        # engine must not compare it.
        view = View.natural_join(
            "V",
            schemas,
            ["W", "Z"],
            Comparison(Attr("W"), ">", Const(0)) & Comparison(Attr("W"), ">", Attr("Z")),
        )
        state = {
            "r1": SignedBag.from_rows([(7, 2)]),
            "r2": SignedBag.from_rows([(2, 5)]),
            "r3": SignedBag.from_rows([(5, 0)]),
        }
        batches = {
            "r1": ColumnBatch([[7, None], [2, 2]], [1, 0]),
            "r2": ColumnBatch.from_bag(state["r2"], 2),
            "r3": ColumnBatch.from_bag(state["r3"], 2),
        }
        expected = SignedBag.from_rows([(7, 0)])
        for query in (view.as_query(), view.substitute("r3", SignedTuple((5, 0)))):
            assert evaluate_query(query, state, dict(batches)) == expected
