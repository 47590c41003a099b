"""Unit tests for View definitions, V<U>, and key analysis."""

import pytest

from repro.errors import ExpressionError, SchemaError
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, SignedTuple
from repro.relational.views import View


class TestNaturalJoin:
    def test_shared_attributes_become_equalities(self, two_rel_schemas):
        view = View.natural_join("V", two_rel_schemas, ["W"])
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 4), (9, 9)]),
        }
        assert view.evaluate(state) == SignedBag.from_rows([(1,)])

    def test_three_way_chain(self, three_rel_schemas):
        view = View.natural_join("V", three_rel_schemas, ["W"])
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 5)]),
            "r3": SignedBag.from_rows([(5, 3)]),
        }
        assert view.evaluate(state) == SignedBag.from_rows([(1,)])

    def test_extra_condition(self, two_rel_schemas):
        view = View.natural_join(
            "V", two_rel_schemas, ["W"], Comparison(Attr("W"), ">", Attr("Y"))
        )
        state = {
            "r1": SignedBag.from_rows([(1, 2), (9, 2)]),
            "r2": SignedBag.from_rows([(2, 4)]),
        }
        assert view.evaluate(state) == SignedBag.from_rows([(9,)])

    def test_duplicate_relations_rejected(self, r1_schema):
        with pytest.raises(SchemaError):
            View.natural_join("V", [r1_schema, r1_schema], ["W"])


class TestStructure:
    def test_relation_names_and_schema_for(self, view_w):
        assert view_w.relation_names == ("r1", "r2")
        assert view_w.schema_for("r1").name == "r1"
        with pytest.raises(SchemaError):
            view_w.schema_for("zzz")

    def test_involves(self, view_w):
        assert view_w.involves("r1")
        assert not view_w.involves("r9")

    def test_output_columns(self, view_wy):
        assert view_wy.output_columns() == ("W", "Y")

    def test_arity(self, view_wy):
        assert view_wy.arity == 2

    def test_bad_projection_rejected(self, two_rel_schemas):
        with pytest.raises(SchemaError):
            View("V", two_rel_schemas, ["Nope"])

    def test_ambiguous_projection_rejected(self, two_rel_schemas):
        with pytest.raises(SchemaError):
            View("V", two_rel_schemas, ["X"])  # X is in both r1 and r2

    def test_qualified_projection_allowed(self, two_rel_schemas):
        view = View("V", two_rel_schemas, ["r1.X"])
        assert view.output_columns() == ("r1.X",)

    def test_equality(self, two_rel_schemas):
        a = View.natural_join("V", two_rel_schemas, ["W"])
        b = View.natural_join("V", two_rel_schemas, ["W"])
        assert a == b
        assert hash(a) == hash(b)
        assert a != View.natural_join("V2", two_rel_schemas, ["W"])


class TestSubstitution:
    def test_v_of_u_binds_one_relation(self, view_w):
        query = view_w.substitute("r2", SignedTuple((2, 3)))
        assert query.term_count() == 1
        term = query.terms[0]
        assert [op.name for op in term.operands if not op.is_bound] == ["r1"]

    def test_v_of_u_evaluates_like_paper_example_1(self, view_w):
        # Q1 = pi_W(r1 |x| [2,3]) over r1 = ([1,2]) gives A1 = ([1]).
        query = view_w.substitute("r2", SignedTuple((2, 3)))
        state = {"r1": SignedBag.from_rows([(1, 2)])}
        assert query.evaluate(state) == SignedBag.from_rows([(1,)])

    def test_substitute_uninvolved_relation_raises(self, view_w):
        with pytest.raises(ExpressionError):
            view_w.substitute("r9", SignedTuple((1,)))

    def test_deletion_substitution_carries_sign(self, view_wy):
        query = view_wy.substitute("r1", SignedTuple((1, 2), MINUS))
        state = {"r2": SignedBag.from_rows([(2, 3)])}
        assert query.evaluate(state) == SignedBag.singleton((1, 3), MINUS)


class TestKeyAnalysis:
    def test_contains_all_keys_true(self, keyed_view):
        assert keyed_view.contains_all_keys()

    def test_contains_all_keys_false_when_missing_key(self, keyed_schemas):
        view = View.natural_join("V", keyed_schemas, ["W"])  # drops r2's key Y
        assert not view.contains_all_keys()

    def test_contains_all_keys_false_without_declared_keys(self, view_wy):
        assert not view_wy.contains_all_keys()

    def test_key_output_positions(self, keyed_view):
        assert keyed_view.key_output_positions("r1") == (0,)
        assert keyed_view.key_output_positions("r2") == (1,)

    def test_key_output_positions_missing_raises(self, keyed_schemas):
        view = View.natural_join("V", keyed_schemas, ["W"])
        with pytest.raises(SchemaError):
            view.key_output_positions("r2")

    def test_composite_key_positions(self):
        schemas = [
            RelationSchema("a", ("P", "Q"), key=("P", "Q")),
            RelationSchema("b", ("Q", "R"), key=("R",)),
        ]
        view = View.natural_join("V", schemas, ["R", "P", "a.Q"])
        assert view.key_output_positions("a") == (1, 2)
        assert view.key_output_positions("b") == (0,)
        assert view.contains_all_keys()


class TestOracle:
    def test_evaluate_empty_state(self, view_w):
        state = {"r1": SignedBag(), "r2": SignedBag()}
        assert view_w.evaluate(state).is_empty()

    def test_evaluate_retains_duplicates(self, view_w):
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3), (2, 4)]),
        }
        assert view_w.evaluate(state).multiplicity((1,)) == 2

    def test_as_query_roundtrip(self, view_w):
        state = {
            "r1": SignedBag.from_rows([(1, 2)]),
            "r2": SignedBag.from_rows([(2, 3)]),
        }
        assert view_w.as_query().evaluate(state) == view_w.evaluate(state)
