"""Selection conditions for SPJ views.

A condition is a boolean expression over attribute references and
constants, built from comparisons and ``AND`` / ``OR`` / ``NOT``.  The same
AST serves three consumers:

- the in-memory evaluator (:meth:`Condition.evaluate` against a resolved
  product row);
- the SQLite source, which renders it to a SQL ``WHERE`` clause
  (:meth:`Condition.to_sql`);
- the view-analysis code (e.g. ECA-Local), which inspects referenced
  attributes via :meth:`Condition.attributes`.

Attribute references use the naming rules of
:class:`repro.relational.schema.ProductSchema`: qualified ``"r1.W"`` always
works, bare ``"W"`` works when unambiguous.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import ExpressionError
from repro.relational.schema import ProductSchema

Row = Tuple[object, ...]

_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: ``=`` / ``!=`` render null-safe (``IS`` / ``IS NOT``): the in-memory
#: evaluators compare with Python's ``==``, under which ``None == None``
#: holds, while SQL's ``NULL = NULL`` is unknown and would drop the row.
_SQL_OPS = {"=": "IS", "!=": "IS NOT", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


class Operand:
    """Base class for comparison operands (attributes and constants)."""

    def resolve(self, schema: ProductSchema) -> "_BoundOperand":
        raise NotImplementedError

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        raise NotImplementedError


class Attr(Operand):
    """Reference to an attribute by (possibly qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def resolve(self, schema: ProductSchema) -> "_BoundOperand":
        position = schema.resolve(self.name)
        return _BoundAttr(position)

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        return column_of(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attr) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Attr", self.name))

    def __repr__(self) -> str:
        return self.name


class Const(Operand):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def resolve(self, schema: ProductSchema) -> "_BoundOperand":
        return _BoundConst(self.value)

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        params.append(self.value)
        return "?"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def __repr__(self) -> str:
        return repr(self.value)


class _BoundOperand:
    def value(self, row: Row) -> object:
        raise NotImplementedError


class _BoundAttr(_BoundOperand):
    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        self.position = position

    def value(self, row: Row) -> object:
        return row[self.position]


class _BoundConst(_BoundOperand):
    __slots__ = ("constant",)

    def __init__(self, constant: object) -> None:
        self.constant = constant

    def value(self, row: Row) -> object:
        return self.constant


class Condition:
    """Base class for selection conditions."""

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        """Compile to a fast row predicate for the given product schema."""
        raise NotImplementedError

    def attributes(self) -> Tuple[str, ...]:
        """All attribute names referenced, in syntactic order."""
        raise NotImplementedError

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        """Render to a SQL expression, appending literals to ``params``."""
        raise NotImplementedError

    def __and__(self, other: "Condition") -> "Condition":
        return And(self, other)

    def __or__(self, other: "Condition") -> "Condition":
        return Or(self, other)

    def __invert__(self) -> "Condition":
        return Not(self)


class TrueCondition(Condition):
    """The always-true condition (a pure projection over a product)."""

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        return lambda row: True

    def attributes(self) -> Tuple[str, ...]:
        return ()

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        return "1=1"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrueCondition)

    def __hash__(self) -> int:
        return hash("TrueCondition")

    def __repr__(self) -> str:
        return "TRUE"


class Comparison(Condition):
    """``left op right`` where op is one of ``= != < <= > >=``."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Operand, op: str, right: Operand) -> None:
        if op not in _COMPARATORS:
            raise ExpressionError(
                f"unknown comparison operator {op!r}; expected one of {sorted(_COMPARATORS)}"
            )
        self.left = left
        self.op = op
        self.right = right

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        left = self.left.resolve(schema)
        right = self.right.resolve(schema)
        compare = _COMPARATORS[self.op]
        return lambda row: compare(left.value(row), right.value(row))

    def attributes(self) -> Tuple[str, ...]:
        names = []
        for side in (self.left, self.right):
            if isinstance(side, Attr):
                names.append(side.name)
        return tuple(names)

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        left = self.left.to_sql(column_of, params)
        right = self.right.to_sql(column_of, params)
        return f"({left} {_SQL_OPS[self.op]} {right})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and self.left == other.left
            and self.op == other.op
            and self.right == other.right
        )

    def __hash__(self) -> int:
        return hash(("Comparison", self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Condition):
    __slots__ = ("parts",)

    def __init__(self, *parts: Condition) -> None:
        if not parts:
            raise ExpressionError("And needs at least one part")
        self.parts = tuple(parts)

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        predicates = [part.bind(schema) for part in self.parts]
        return lambda row: all(p(row) for p in predicates)

    def attributes(self) -> Tuple[str, ...]:
        names: List[str] = []
        for part in self.parts:
            names.extend(part.attributes())
        return tuple(names)

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        return "(" + " AND ".join(p.to_sql(column_of, params) for p in self.parts) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("And", self.parts))

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(p) for p in self.parts) + ")"


class Or(Condition):
    __slots__ = ("parts",)

    def __init__(self, *parts: Condition) -> None:
        if not parts:
            raise ExpressionError("Or needs at least one part")
        self.parts = tuple(parts)

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        predicates = [part.bind(schema) for part in self.parts]
        return lambda row: any(p(row) for p in predicates)

    def attributes(self) -> Tuple[str, ...]:
        names: List[str] = []
        for part in self.parts:
            names.extend(part.attributes())
        return tuple(names)

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        return "(" + " OR ".join(p.to_sql(column_of, params) for p in self.parts) + ")"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Or", self.parts))

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"


class Not(Condition):
    __slots__ = ("part",)

    def __init__(self, part: Condition) -> None:
        self.part = part

    def bind(self, schema: ProductSchema) -> Callable[[Row], bool]:
        predicate = self.part.bind(schema)
        return lambda row: not predicate(row)

    def attributes(self) -> Tuple[str, ...]:
        return self.part.attributes()

    def to_sql(self, column_of: Callable[[str], str], params: List[object]) -> str:
        return f"(NOT {self.part.to_sql(column_of, params)})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.part == other.part

    def __hash__(self) -> int:
        return hash(("Not", self.part))

    def __repr__(self) -> str:
        return f"(NOT {self.part!r})"


def attr(name: str) -> Attr:
    """Shorthand for :class:`Attr`."""
    return Attr(name)


def _as_operand(value: object) -> Operand:
    if isinstance(value, Operand):
        return value
    return Const(value)


def compare(left: object, op: str, right: object) -> Comparison:
    """Build a comparison, wrapping non-operand arguments as constants.

    ``compare(attr("W"), ">", 3)`` or ``compare("r1.X", "=", "r2.X")`` —
    a bare string is interpreted as an attribute name.
    """
    left_op = Attr(left) if isinstance(left, str) else _as_operand(left)
    right_op = Attr(right) if isinstance(right, str) else _as_operand(right)
    return Comparison(left_op, op, right_op)


def conjunction(conditions: Sequence[Condition]) -> Condition:
    """``AND`` a sequence of conditions; empty sequence means TRUE."""
    parts = [c for c in conditions if not isinstance(c, TrueCondition)]
    if not parts:
        return TrueCondition()
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


def flatten_conjuncts(condition: Condition) -> List[Condition]:
    """Split a conjunction tree into its leaf conjuncts.

    ``TRUE`` contributes nothing; any non-``And`` node (including ``Or``
    and ``Not`` subtrees) is kept whole.  Inverse of :func:`conjunction`
    up to nesting.
    """
    if isinstance(condition, TrueCondition):
        return []
    if isinstance(condition, And):
        out: List[Condition] = []
        for part in condition.parts:
            out.extend(flatten_conjuncts(part))
        return out
    return [condition]


def equality_pairs(condition: Condition) -> List[Tuple[str, str]]:
    """Attribute pairs equated by top-level conjuncts.

    Only ``Attr = Attr`` comparisons that appear as plain conjuncts count:
    an equality under ``Or``/``Not`` does not hold for every tuple and is
    ignored.
    """
    pairs: List[Tuple[str, str]] = []
    for conjunct in flatten_conjuncts(condition):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        ):
            pairs.append((conjunct.left.name, conjunct.right.name))
    return pairs
