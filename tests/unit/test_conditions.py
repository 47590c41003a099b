"""Unit tests for the condition language."""

import pytest

from repro.errors import ExpressionError
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    TrueCondition,
    compare,
    conjunction,
)
from repro.relational.schema import ProductSchema, RelationSchema


@pytest.fixture
def product():
    return ProductSchema(
        [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
    )


class TestComparison:
    @pytest.mark.parametrize(
        "op,row,expected",
        [
            ("=", (1, 2, 2, 3), True),
            ("=", (1, 2, 5, 3), False),
            ("!=", (1, 2, 5, 3), True),
            ("<", (1, 2, 3, 3), True),
            ("<=", (1, 3, 3, 3), True),
            (">", (1, 5, 3, 3), True),
            (">=", (1, 3, 3, 3), True),
        ],
    )
    def test_operators(self, product, op, row, expected):
        cond = Comparison(Attr("r1.X"), op, Attr("r2.X"))
        assert cond.bind(product)(row) is expected

    def test_constant_comparison(self, product):
        cond = Comparison(Attr("W"), ">", Const(10))
        predicate = cond.bind(product)
        assert predicate((11, 0, 0, 0))
        assert not predicate((10, 0, 0, 0))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison(Attr("A"), "~", Attr("B"))

    def test_attributes_listed(self):
        cond = Comparison(Attr("W"), ">", Const(10))
        assert cond.attributes() == ("W",)
        both = Comparison(Attr("W"), "=", Attr("Y"))
        assert both.attributes() == ("W", "Y")


class TestBooleans:
    def test_true_condition(self, product):
        assert TrueCondition().bind(product)((0, 0, 0, 0))
        assert TrueCondition().attributes() == ()

    def test_and(self, product):
        cond = And(
            Comparison(Attr("W"), ">", Const(0)),
            Comparison(Attr("Y"), "<", Const(5)),
        )
        predicate = cond.bind(product)
        assert predicate((1, 0, 0, 4))
        assert not predicate((0, 0, 0, 4))
        assert not predicate((1, 0, 0, 5))

    def test_or(self, product):
        cond = Or(
            Comparison(Attr("W"), "=", Const(1)),
            Comparison(Attr("Y"), "=", Const(1)),
        )
        predicate = cond.bind(product)
        assert predicate((1, 0, 0, 0))
        assert predicate((0, 0, 0, 1))
        assert not predicate((0, 0, 0, 0))

    def test_not(self, product):
        cond = Not(Comparison(Attr("W"), "=", Const(1)))
        predicate = cond.bind(product)
        assert predicate((0, 0, 0, 0))
        assert not predicate((1, 0, 0, 0))

    def test_empty_and_or_rejected(self):
        with pytest.raises(ExpressionError):
            And()
        with pytest.raises(ExpressionError):
            Or()

    def test_operator_overloads(self, product):
        a = Comparison(Attr("W"), "=", Const(1))
        b = Comparison(Attr("Y"), "=", Const(2))
        assert isinstance(a & b, And)
        assert isinstance(a | b, Or)
        assert isinstance(~a, Not)

    def test_nested_attributes(self):
        cond = And(
            Or(Comparison(Attr("A"), "=", Const(1)), Comparison(Attr("B"), "=", Const(2))),
            Not(Comparison(Attr("C"), "=", Attr("D"))),
        )
        assert cond.attributes() == ("A", "B", "C", "D")


class TestSqlRendering:
    def _render(self, cond):
        params = []
        sql = cond.to_sql(lambda name: f'"{name}"', params)
        return sql, params

    def test_comparison_with_constant(self):
        sql, params = self._render(Comparison(Attr("W"), ">", Const(10)))
        assert sql == '("W" > ?)'
        assert params == [10]

    def test_not_equal_renders_sql_style(self):
        # Null-safe, like Python's ``!=``: ``NULL <> 1`` would be unknown.
        sql, _ = self._render(Comparison(Attr("A"), "!=", Attr("B")))
        assert sql == '("A" IS NOT "B")'

    def test_equal_renders_null_safe(self):
        sql, params = self._render(Comparison(Attr("A"), "=", Const(None)))
        assert sql == '("A" IS ?)'
        assert params == [None]

    def test_boolean_composition(self):
        cond = And(
            Comparison(Attr("A"), "=", Const(1)),
            Or(Comparison(Attr("B"), "<", Const(2)), Not(TrueCondition())),
        )
        sql, params = self._render(cond)
        assert "AND" in sql and "OR" in sql and "NOT" in sql
        assert params == [1, 2]

    def test_true_condition_sql(self):
        sql, params = self._render(TrueCondition())
        assert sql == "1=1"
        assert params == []


class TestHelpers:
    def test_compare_wraps_strings_as_attrs(self):
        cond = compare("r1.X", "=", "r2.X")
        assert cond == Comparison(Attr("r1.X"), "=", Attr("r2.X"))

    def test_compare_wraps_values_as_consts(self):
        cond = compare("W", ">", 3)
        assert cond == Comparison(Attr("W"), ">", Const(3))

    def test_conjunction_empty_is_true(self):
        assert conjunction([]) == TrueCondition()

    def test_conjunction_single_passthrough(self):
        c = Comparison(Attr("A"), "=", Const(1))
        assert conjunction([c]) is c

    def test_conjunction_drops_true(self):
        c = Comparison(Attr("A"), "=", Const(1))
        assert conjunction([TrueCondition(), c]) is c

    def test_conjunction_multiple(self):
        a = Comparison(Attr("A"), "=", Const(1))
        b = Comparison(Attr("B"), "=", Const(2))
        assert conjunction([a, b]) == And(a, b)


class TestEqualityAndRepr:
    def test_condition_equality(self):
        a = Comparison(Attr("A"), "=", Const(1))
        assert a == Comparison(Attr("A"), "=", Const(1))
        assert a != Comparison(Attr("A"), "=", Const(2))
        assert And(a) == And(a)
        assert Or(a) != And(a)
        assert Not(a) == Not(a)

    def test_reprs_render(self):
        cond = And(Comparison(Attr("A"), "=", Const(1)), Not(TrueCondition()))
        text = repr(cond)
        assert "A" in text and "TRUE" in text
