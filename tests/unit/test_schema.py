"""Unit tests for relation and product schemas."""

import pytest

from repro.errors import SchemaError
from repro.relational.schema import ProductSchema, RelationSchema, require_distinct


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
