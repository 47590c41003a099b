"""Unit tests for relation and product schemas."""

import math

import pytest

from repro.core.eca import ECA
from repro.errors import SchemaError
from repro.relational.bag import SignedBag
from repro.relational.expressions import BoundOperand
from repro.relational.schema import ProductSchema, RelationSchema, require_distinct
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.simulation.driver import Simulation
from repro.simulation.schedules import BestCaseSchedule
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.source.updates import insert


class TestRelationSchema:
    def test_basic_construction(self):
        schema = RelationSchema("r1", ("W", "X"))
        assert schema.name == "r1"
        assert schema.attributes == ("W", "X")
        assert schema.arity == 2
        assert schema.key is None

    def test_positions(self):
        schema = RelationSchema("r", ("A", "B", "C"))
        assert schema.position("A") == 0
        assert schema.position("C") == 2

    def test_unknown_attribute_raises(self):
        schema = RelationSchema("r", ("A",))
        with pytest.raises(SchemaError):
            schema.position("B")

    def test_has_attribute(self):
        schema = RelationSchema("r", ("A", "B"))
        assert schema.has_attribute("A")
        assert not schema.has_attribute("Z")

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("A", "A"))

    def test_empty_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ())

    def test_bad_relation_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("not a name", ("A",))
        with pytest.raises(SchemaError):
            RelationSchema("", ("A",))

    def test_bad_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("a b",))

    def test_validate_row(self):
        schema = RelationSchema("r", ("A", "B"))
        assert schema.validate_row([1, 2]) == (1, 2)
        row = (1, 2)
        assert schema.validate_row(row) is row
        with pytest.raises(SchemaError):
            schema.validate_row((1,))
        with pytest.raises(SchemaError):
            schema.validate_row((1, 2, 3))

    def test_key_declaration(self):
        schema = RelationSchema("r", ("A", "B"), key=("B",))
        assert schema.key == ("B",)
        assert schema.key_positions() == (1,)
        assert schema.key_of((10, 20)) == (20,)

    def test_composite_key(self):
        schema = RelationSchema("r", ("A", "B", "C"), key=("C", "A"))
        assert schema.key_of((1, 2, 3)) == (3, 1)

    def test_key_must_reference_attributes(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("A",), key=("Z",))

    def test_empty_key_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("A",), key=())

    def test_duplicate_key_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", ("A", "B"), key=("A", "A"))

    def test_key_positions_without_key_raises(self):
        schema = RelationSchema("r", ("A",))
        with pytest.raises(SchemaError):
            schema.key_positions()

    def test_equality_and_hash(self):
        a = RelationSchema("r", ("A", "B"), key=("A",))
        b = RelationSchema("r", ("A", "B"), key=("A",))
        c = RelationSchema("r", ("A", "B"))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_repr_mentions_name_and_key(self):
        schema = RelationSchema("r", ("A",), key=("A",))
        assert "r" in repr(schema)
        assert "key" in repr(schema)


class TestProductSchema:
    def test_width_and_qualified_resolution(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        assert product.width == 4
        assert product.resolve("r1.W") == 0
        assert product.resolve("r1.X") == 1
        assert product.resolve("r2.X") == 2
        assert product.resolve("r2.Y") == 3

    def test_bare_resolution_when_unambiguous(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        assert product.resolve("W") == 0
        assert product.resolve("Y") == 3

    def test_ambiguous_bare_name_raises(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        with pytest.raises(SchemaError):
            product.resolve("X")

    def test_unknown_name_raises(self):
        product = ProductSchema([RelationSchema("r1", ("W",))])
        with pytest.raises(SchemaError):
            product.resolve("nope")

    def test_duplicate_relations_rejected(self):
        schema = RelationSchema("r1", ("W",))
        with pytest.raises(SchemaError):
            ProductSchema([schema, schema])

    def test_empty_product_rejected(self):
        with pytest.raises(SchemaError):
            ProductSchema([])

    def test_qualified_name_roundtrip(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        for position in range(product.width):
            name = product.qualified_name(position)
            assert product.resolve(name) == position

    def test_qualified_name_out_of_range(self):
        product = ProductSchema([RelationSchema("r1", ("W",))])
        with pytest.raises(SchemaError):
            product.qualified_name(5)

    def test_output_name_prefers_bare(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        assert product.output_name("r1.W") == "W"
        assert product.output_name("r1.X") == "r1.X"

    def test_relation_span(self):
        product = ProductSchema(
            [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        )
        assert product.relation_span("r1") == (0, 2)
        assert product.relation_span("r2") == (2, 4)
        with pytest.raises(SchemaError):
            product.relation_span("r9")


def test_require_distinct():
    a = RelationSchema("a", ("X",))
    b = RelationSchema("b", ("X",))
    require_distinct([a, b])
    with pytest.raises(SchemaError):
        require_distinct([a, RelationSchema("a", ("Y",))])


class TestValuesUnequalToThemselves:
    """A NaN joined by identity in the engine's hash joins but not under
    ``==`` (the view's own definition), and a decoded NaN is a fresh
    object: it is refused wherever a row enters, naming the relation and
    the attribute."""

    def test_a_nan_join_value_is_refused_not_maintained(self):
        r1 = RelationSchema("r1", ("W", "X"))
        r2 = RelationSchema("r2", ("X", "Y"))
        v = View.natural_join("V", [r1, r2], ["W", "Y"])
        src = MemorySource([r1, r2])
        alg = ECA(v, SignedBag())
        sim = Simulation(
            src, alg, [insert("r1", (1, math.nan)), insert("r2", (math.nan, 2))]
        )
        with pytest.raises(SchemaError, match="relation 'r1' .* attribute 'X'"):
            sim.run(BestCaseSchedule())
        # Before the fix ECA maintained +[1,2] here while the view's own
        # definition over the source held nothing.
        assert v.evaluate(src.snapshot()).is_empty()
        assert alg.view_state().is_empty()

    def test_initial_rows_and_bound_tuples_are_checked_too(self):
        r2 = RelationSchema("r2", ("X", "Y"))
        for source in (MemorySource, SQLiteSource):
            with pytest.raises(SchemaError, match="relation 'r2' .* attribute 'Y'"):
                source([r2], {"r2": [(1, 2), (3, float("nan"))]})
        with pytest.raises(SchemaError, match="attribute 'X'"):
            BoundOperand(r2, SignedTuple((float("nan"), 1)))
        # Equal to itself: accepted, ``None`` included.
        assert r2.validate_row((None, 1.5)) == (None, 1.5)
