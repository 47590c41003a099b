"""Relation schemas and product-row name resolution.

The paper writes views as ``V = pi_proj(sigma_cond(r1 x r2 x ... x rn))``
over *distinct* base relations (Section 4).  Its examples use shared
attribute names to express natural joins (``r1(W, X)`` joins ``r2(X, Y)``
on ``X``).  To keep both notations expressible we give every column of a
cross product a qualified name ``relation.attribute`` and additionally allow
the bare attribute name wherever it is unambiguous.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SchemaError

Value = object
Row = Tuple[Value, ...]


class RelationSchema:
    """Schema of one base relation: a name, ordered attributes, optional key.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"r1"``.  Must be a valid identifier.
    attributes:
        Ordered attribute names, e.g. ``("W", "X")``.  Names must be unique
        within the relation.
    key:
        Optional subset of ``attributes`` forming a key.  Required by the
        ECA-Key algorithm (Section 5.4); ignored by the other algorithms.
    base:
        The *stored* relation this schema reads from; defaults to ``name``.
        Differs from ``name`` only for aliases (:meth:`aliased`), which let
        a view mention the same base relation more than once (self-joins,
        Section 4's "multiple occurrences of the same relation").
    """

    __slots__ = ("name", "attributes", "key", "base", "_positions", "_hash")

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        key: Optional[Sequence[str]] = None,
        base: Optional[str] = None,
    ) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"relation name must be an identifier, got {name!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaError(f"duplicate attribute names in relation {name!r}: {attrs}")
        for a in attrs:
            if not a or not a.isidentifier():
                raise SchemaError(f"attribute name must be an identifier, got {a!r}")
        if base is not None and (not base or not base.isidentifier()):
            raise SchemaError(f"base relation name must be an identifier, got {base!r}")
        self.name = name
        self.base = base if base is not None else name
        self.attributes = attrs
        self._positions: Dict[str, int] = {a: i for i, a in enumerate(attrs)}
        if key is not None:
            key_t = tuple(key)
            if not key_t:
                raise SchemaError(f"key of relation {name!r} must not be empty")
            missing = [a for a in key_t if a not in self._positions]
            if missing:
                raise SchemaError(
                    f"key attributes {missing} are not attributes of relation {name!r}"
                )
            if len(set(key_t)) != len(key_t):
                raise SchemaError(f"duplicate key attributes in relation {name!r}")
            self.key = key_t
        else:
            self.key = None
        # Immutable after construction, and hashed on every operand
        # comparison and schema-keyed lookup of the substitution path.
        self._hash = hash((self.name, self.attributes, self.key, self.base))

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    @property
    def is_alias(self) -> bool:
        return self.base != self.name

    def aliased(self, alias: str) -> "RelationSchema":
        """A renamed occurrence of this relation for use inside one view.

        The alias keeps the attributes and key but reads from the same
        stored relation (``base``), so a view can join a relation with
        itself: ``emp.aliased("manager")``.
        """
        return RelationSchema(alias, self.attributes, self.key, base=self.base)

    def position(self, attribute: str) -> int:
        """Index of ``attribute`` within the schema."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attribute!r}"
            ) from None

    def validate_row(self, row: Sequence[Value]) -> Row:
        """Check arity and return the row as a tuple (itself, if it is one).

        A value not equal to itself (a NaN) is refused: a dict key and an
        identity test match it to itself, ``==`` does not, so the engine's
        hash joins and a compared condition would disagree on it — and a
        decoded NaN is a fresh object, so a recovered run would join
        differently from the live one.
        """
        row_t = row if type(row) is tuple else tuple(row)
        if len(row_t) != self.arity:
            raise SchemaError(
                f"row {row_t!r} has arity {len(row_t)}, "
                f"but relation {self.name!r} has arity {self.arity}"
            )
        for value in row_t:
            if value != value:
                attribute = self.attributes[row_t.index(value)]
                raise SchemaError(
                    f"row {row_t!r} of relation {self.name!r} holds {value!r} "
                    f"in attribute {attribute!r}, which is not equal to itself"
                )
        return row_t

    def key_positions(self) -> Tuple[int, ...]:
        """Indices of the key attributes; raises if no key is declared."""
        if self.key is None:
            raise SchemaError(f"relation {self.name!r} has no declared key")
        return tuple(self._positions[a] for a in self.key)

    def key_of(self, row: Sequence[Value]) -> Row:
        """Project ``row`` onto the declared key."""
        row_t = self.validate_row(row)
        return tuple(row_t[i] for i in self.key_positions())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(self.attributes)
        key = f", key={list(self.key)}" if self.key else ""
        alias = f" AS {self.name}" if self.is_alias else ""
        shown = self.base if self.is_alias else self.name
        return f"RelationSchema({shown}({cols}){key}{alias})"


class ProductSchema:
    """Name resolution for rows of a cross product ``r1 x r2 x ... x rn``.

    A product row is the concatenation of one row per operand relation, in
    operand order.  Columns are addressable by qualified name
    (``"r1.W"``) always, and by bare name (``"W"``) when exactly one operand
    provides that attribute.
    """

    def __init__(self, schemas: Sequence[RelationSchema]) -> None:
        if not schemas:
            raise SchemaError("a product needs at least one relation")
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise SchemaError(f"product relations must be distinct, got {names}")
        self.schemas: Tuple[RelationSchema, ...] = tuple(schemas)
        self._qualified: Dict[str, int] = {}
        self._bare: Dict[str, List[int]] = {}
        offset = 0
        for schema in self.schemas:
            for i, a in enumerate(schema.attributes):
                self._qualified[f"{schema.name}.{a}"] = offset + i
                self._bare.setdefault(a, []).append(offset + i)
            offset += schema.arity
        self.width = offset

    def resolve(self, name: str) -> int:
        """Map an attribute reference to its position in the product row.

        Accepts qualified (``"r1.W"``) and unambiguous bare (``"W"``) names.
        """
        if name in self._qualified:
            return self._qualified[name]
        positions = self._bare.get(name)
        if positions is None:
            raise SchemaError(f"unknown attribute {name!r} in product {self._names()}")
        if len(positions) > 1:
            raise SchemaError(
                f"attribute {name!r} is ambiguous in product {self._names()}; "
                f"qualify it as relation.attribute"
            )
        return positions[0]

    def qualified_name(self, position: int) -> str:
        """Inverse of :meth:`resolve` for qualified names."""
        offset = 0
        for schema in self.schemas:
            if position < offset + schema.arity:
                return f"{schema.name}.{schema.attributes[position - offset]}"
            offset += schema.arity
        raise SchemaError(f"position {position} out of range for product of width {self.width}")

    def output_name(self, name: str) -> str:
        """Shortest unambiguous display name for an attribute reference."""
        position = self.resolve(name)
        bare = self.qualified_name(position).split(".", 1)[1]
        if len(self._bare.get(bare, [])) == 1:
            return bare
        return self.qualified_name(position)

    def relation_span(self, relation: str) -> Tuple[int, int]:
        """Half-open ``(start, stop)`` column range of ``relation``'s columns."""
        offset = 0
        for schema in self.schemas:
            if schema.name == relation:
                return offset, offset + schema.arity
            offset += schema.arity
        raise SchemaError(f"relation {relation!r} is not part of product {self._names()}")

    def _names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.schemas)

    def __repr__(self) -> str:
        return f"ProductSchema({' x '.join(self._names())})"


def require_distinct(schemas: Iterable[RelationSchema]) -> None:
    """Raise :class:`SchemaError` unless all relation names are distinct."""
    seen = set()
    for schema in schemas:
        if schema.name in seen:
            raise SchemaError(f"relation {schema.name!r} appears more than once")
        seen.add(schema.name)
