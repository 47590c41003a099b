"""Unit tests for terms, queries, and the substitution operator Q<U>."""

import pytest

from repro.errors import ExpressionError, SchemaError
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.expressions import (
    BoundOperand,
    Query,
    RelationOperand,
    Term,
    empty_query,
)
from repro.relational.schema import ProductSchema, RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple


@pytest.fixture
def r1():
    return RelationSchema("r1", ("W", "X"))


@pytest.fixture
def r2():
    return RelationSchema("r2", ("X", "Y"))


def join_term(r1, r2, projection=("W",), coefficient=1):
    return Term(
        [RelationOperand(r1), RelationOperand(r2)],
        projection,
        Comparison(Attr("r1.X"), "=", Attr("r2.X")),
        coefficient,
    )


def bind(term, relation, signed_tuple):
    """``T<U>`` for a relation occurring once: the single substituted term."""
    (bound,) = term.substitute_update(relation, signed_tuple)
    return bound


class TestOperands:
    def test_relation_operand(self, r1):
        op = RelationOperand(r1)
        assert op.name == "r1"
        assert not op.is_bound

    def test_bound_operand(self, r2):
        op = BoundOperand(r2, SignedTuple((2, 3)))
        assert op.name == "r2"
        assert op.is_bound
        assert op.tuple.values == (2, 3)

    def test_bound_operand_validates_arity(self, r2):
        with pytest.raises(SchemaError):
            BoundOperand(r2, SignedTuple((1,)))

    def test_operand_equality(self, r1):
        assert RelationOperand(r1) == RelationOperand(r1)
        assert BoundOperand(r1, SignedTuple((1, 2))) == BoundOperand(
            r1, SignedTuple((1, 2))
        )
        assert BoundOperand(r1, SignedTuple((1, 2))) != BoundOperand(
            r1, SignedTuple((1, 2), MINUS)
        )


class TestTermConstruction:
    def test_rejects_empty_operands(self):
        with pytest.raises(ExpressionError):
            Term([], ("W",))

    def test_rejects_empty_projection(self, r1):
        with pytest.raises(ExpressionError):
            Term([RelationOperand(r1)], ())

    def test_rejects_bad_coefficient(self, r1):
        with pytest.raises(ExpressionError):
            Term([RelationOperand(r1)], ("W",), coefficient=2)

    def test_rejects_unknown_projection(self, r1):
        with pytest.raises(SchemaError):
            Term([RelationOperand(r1)], ("Nope",))

    @pytest.mark.parametrize(
        "projection, condition",
        [
            (("X",), None),  # ambiguous: r1.X and r2.X
            (("W",), Comparison(Attr("Nope"), "=", Attr("W"))),
            (("W",), Comparison(Attr("X"), "=", Attr("Y"))),  # ambiguous X
        ],
    )
    def test_rejects_unresolvable_names_eagerly(self, r1, r2, projection, condition):
        with pytest.raises(SchemaError):
            Term([RelationOperand(r1), RelationOperand(r2)], projection, condition)

    def test_structure_accessors(self, r1, r2):
        term = join_term(r1, r2)
        assert term.relation_names == ("r1", "r2")
        assert term.free_relations() == ("r1", "r2")
        assert not term.is_fully_bound()
        assert term.output_columns() == ("W",)

    def test_operand_for(self, r1, r2):
        term = join_term(r1, r2)
        assert term.operand_for("r1").name == "r1"
        with pytest.raises(ExpressionError):
            term.operand_for("r9")


class TestSubstitution:
    def test_substitute_binds_relation(self, r1, r2):
        term = join_term(r1, r2)
        bound = bind(term, "r2", SignedTuple((2, 3)))
        assert bound.free_relations() == ("r1",)
        assert bound.bound_operands()[0].tuple == SignedTuple((2, 3))

    def test_substitute_already_bound_vanishes(self, r1, r2):
        term = bind(join_term(r1, r2), "r2", SignedTuple((2, 3)))
        assert term.substitute_update("r2", SignedTuple((9, 9))) == []

    def test_substitute_uninvolved_relation_raises(self, r1, r2):
        with pytest.raises(ExpressionError):
            join_term(r1, r2).substitute_update("zzz", SignedTuple((1,)))

    def test_substitution_preserves_coefficient(self, r1, r2):
        term = join_term(r1, r2, coefficient=-1)
        assert bind(term, "r1", SignedTuple((1, 2))).coefficient == -1

    def test_query_substitute_rejects_wrong_arity_tuple(self, r1, r2):
        with pytest.raises(SchemaError):
            Query([join_term(r1, r2)]).substitute("r1", SignedTuple((1, 2, 3)))

    def test_query_substitute_all_same_relation_vanishes(self, r1, r2):
        query = Query([join_term(r1, r2)])
        result = query.substitute("r1", SignedTuple((1, 2))).substitute(
            "r1", SignedTuple((3, 4))
        )
        assert result.is_empty()


class TestEvaluation:
    def test_join_evaluation(self, r1, r2):
        state = {
            "r1": SignedBag.from_rows([(1, 2), (4, 2)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        result = join_term(r1, r2).evaluate(state)
        assert result == SignedBag.from_rows([(1,), (4,)])

    def test_duplicates_retained(self, r1, r2):
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3), (2, 4)]),
        }
        result = join_term(r1, r2).evaluate(state)
        assert result.multiplicity((1,)) == 2

    def test_bound_tuple_sign_propagates(self, r1, r2):
        # Q1 = pi_W(-[1,2] |x| r2): the paper's signed-query example.
        term = bind(join_term(r1, r2), "r1", SignedTuple((1, 2), MINUS))
        state = {"r2": SignedBag.from_rows([(2, 3)])}
        assert term.evaluate(state) == SignedBag.singleton((1,), MINUS)

    def test_two_minus_signs_cancel(self, r1, r2):
        term = join_term(r1, r2)
        term = bind(term, "r1", SignedTuple((1, 2), MINUS))
        term = bind(term, "r2", SignedTuple((2, 3), MINUS))
        assert term.is_fully_bound()
        assert term.evaluate({}) == SignedBag.singleton((1,), PLUS)

    def test_coefficient_negates(self, r1, r2):
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        assert join_term(r1, r2, coefficient=-1).evaluate(state) == SignedBag.singleton(
            (1,), MINUS
        )

    def test_missing_relation_raises(self, r1, r2):
        with pytest.raises(ExpressionError):
            join_term(r1, r2).evaluate({"r1": SignedBag()})

    def test_selection_filters(self, r1, r2):
        term = Term(
            [RelationOperand(r1), RelationOperand(r2)],
            ("W",),
            Comparison(Attr("r1.X"), "=", Attr("r2.X"))
            & Comparison(Attr("W"), ">", Attr("Y")),
        )
        state = {
            "r1": SignedBag.from_rows([(1, 2), (9, 2)]),
            "r2": SignedBag.from_rows([(2, 5)]),
        }
        assert term.evaluate(state) == SignedBag.from_rows([(9,)])


class TestQueryAlgebra:
    def test_add_concatenates_terms(self, r1, r2):
        q = Query([join_term(r1, r2)]) + Query([join_term(r1, r2)])
        assert q.term_count() == 2

    def test_sub_negates_coefficients(self, r1, r2):
        q = Query([join_term(r1, r2)]) - Query([join_term(r1, r2)])
        assert [t.coefficient for t in q.terms] == [1, -1]

    def test_neg(self, r1, r2):
        q = -Query([join_term(r1, r2)])
        assert q.terms[0].coefficient == -1

    def test_empty_query(self):
        assert empty_query().is_empty()
        assert empty_query().evaluate({}) == SignedBag()

    def test_partitioning(self, r1, r2):
        full = join_term(r1, r2)
        bound = bind(
            bind(full, "r1", SignedTuple((1, 2))), "r2", SignedTuple((2, 3))
        )
        q = Query([full, bound])
        assert q.source_terms().term_count() == 1
        assert q.fully_bound_terms().term_count() == 1
        assert q.partition() == (Query([bound]), Query([full]))

    def test_query_minus_cancels_on_evaluation(self, r1, r2):
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        q = Query([join_term(r1, r2)]) - Query([join_term(r1, r2)])
        assert q.evaluate(state).is_empty()

    def test_equality_and_repr(self, r1, r2):
        a = Query([join_term(r1, r2)])
        assert a == Query([join_term(r1, r2)])
        assert a != empty_query()
        assert "pi" in repr(a)
        assert "empty" in repr(empty_query())


class TestSharedShape:
    """Derived terms share the shape their ``Term(...)`` ancestor built."""

    def test_negation_and_substitution_keep_the_shape(self, r1, r2):
        term = join_term(r1, r2)
        query = Query([term])
        delta = query.substitute("r1", SignedTuple((1, 2)))
        derived = [
            term.negate(),
            bind(term, "r2", SignedTuple((2, 3))),
            *(query - delta).terms,
            *(-delta).terms,
        ]
        assert all(t.shape is term.shape for t in derived)
        assert derived[0] == join_term(r1, r2, coefficient=-1)
        assert hash(derived[0]) == hash(join_term(r1, r2, coefficient=-1))

    def test_thousand_substitutions_build_one_product_schema(
        self, r1, r2, monkeypatch
    ):
        built = []
        original = ProductSchema.__init__

        def counting(self, schemas):
            built.append(self)
            original(self, schemas)

        monkeypatch.setattr(ProductSchema, "__init__", counting)
        query = Query([join_term(r1, r2)])
        for n in range(1000):
            delta = query.substitute("r1", SignedTuple((n, 2)))
            assert (query - delta).term_count() == 2
        assert len(built) == 1

    def test_one_substitution_binds_one_operand_per_schema(self, r1, r2):
        query = Query([join_term(r1, r2), join_term(r1, r2, coefficient=-1)])
        delta = query.substitute("r1", SignedTuple((1, 2)))
        assert delta.terms[0].operands[0] is delta.terms[1].operands[0]

        a, b = r1.aliased("a"), r1.aliased("b")
        pair = Term([RelationOperand(a), RelationOperand(b)], ("a.W", "b.W"))
        both = pair.substitute_update("r1", SignedTuple((1, 2)))[-1]
        assert [op.schema for op in both.operands] == [a, b]

    def test_with_operands_shares_the_shape(self, r1, r2):
        term = join_term(r1, r2)
        operands = [
            BoundOperand(RelationSchema("r1", ("W", "X")), SignedTuple((1, 2))),
            RelationOperand(r2),
        ]
        derived = term.with_operands(operands, -1)
        assert derived.shape is term.shape
        assert derived == Term(operands, term.projection, term.condition, -1)

    def test_with_operands_rejects_other_schemas(self, r1, r2):
        term = join_term(r1, r2)
        with pytest.raises(ExpressionError):
            term.with_operands([RelationOperand(r2), RelationOperand(r1)], 1)
        with pytest.raises(ExpressionError):
            term.with_operands([RelationOperand(r1)], 1)
        with pytest.raises(ExpressionError):
            term.with_operands(term.operands, 0)
