"""Canonical structural signatures for terms and queries.

Two compensating queries produced by different views are often the same
expression wearing different clothes: each view aliases its operands its
own way, but after projection and condition names are resolved to
product-row *positions* the expressions are identical — and identical
expressions evaluate identically on every source state.  The signature
defined here is exactly that canonical form:

- an operand contributes its **stored** relation (``schema.base``, so
  aliases vanish) plus, when bound, the concrete signed tuple;
- the projection contributes resolved column positions, not names;
- the condition tree contributes its structure with every attribute
  reference resolved to a position and every constant kept literally;
- the term keeps its coefficient;
- a query is the **multiset** of its term signatures (term order never
  affects the summed result), canonicalized by sorting.

The guarantee the shared-compensation planner leans on (and the property
test in ``tests/unit/test_signature.py`` pins):

    ``query_signature(q1) == query_signature(q2)`` implies
    ``q1.evaluate(state) == q2.evaluate(state)`` for every state that
    contains the referenced relations.

Signatures are plain nested tuples of hashable primitives — usable as
dict keys directly.  They deliberately avoid builtin ``hash()`` (salted
per process) and any clock or randomness: a signature computed twice, in
any process, is byte-identical.

The converse does **not** hold and is not needed: structurally different
queries may be semantically equal (``σ_true`` vs a tautological
comparison); the planner simply misses that sharing opportunity.
"""

from __future__ import annotations

from typing import Tuple

from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Not,
    Or,
    TrueCondition,
)
from repro.relational.expressions import Query, Term
from repro.relational.schema import ProductSchema

#: A signature is a nested tuple of hashable primitives.
Signature = Tuple[object, ...]


def _operand_signature(operand: object) -> Signature:
    """Canonical form of a term operand: stored relation, bound tuple."""
    if operand.is_bound:  # type: ignore[attr-defined]
        signed = operand.tuple  # type: ignore[attr-defined]
        return (
            "bound",
            operand.source_relation,  # type: ignore[attr-defined]
            signed.values,
            signed.sign,
        )
    return ("rel", operand.source_relation)  # type: ignore[attr-defined]


def _comparand_signature(operand: object, product: ProductSchema) -> Signature:
    """Canonical form of one side of a comparison."""
    if isinstance(operand, Attr):
        return ("attr", product.resolve(operand.name))
    if isinstance(operand, Const):
        return ("const", type(operand.value).__name__, operand.value)
    # Unknown operand kinds keep their (deterministic) repr: two terms
    # only share when the reprs match verbatim, which is sound because
    # equal operand lists pin the attribute layout the repr names.
    return ("opaque", repr(operand))


def condition_signature(
    condition: Condition, product: ProductSchema
) -> Signature:
    """Canonical form of a condition tree under ``product``'s naming.

    Attribute references are resolved to product-row positions, so the
    same predicate written against differently-aliased operands yields
    the same signature.  Boolean structure is kept as written — ``AND``
    commutativity is *not* normalized; that only costs sharing
    opportunities, never soundness.
    """
    if isinstance(condition, TrueCondition):
        return ("true",)
    if isinstance(condition, Comparison):
        return (
            "cmp",
            _comparand_signature(condition.left, product),
            condition.op,
            _comparand_signature(condition.right, product),
        )
    if isinstance(condition, And):
        return ("and",) + tuple(
            condition_signature(part, product) for part in condition.parts
        )
    if isinstance(condition, Or):
        return ("or",) + tuple(
            condition_signature(part, product) for part in condition.parts
        )
    if isinstance(condition, Not):
        return ("not", condition_signature(condition.part, product))
    return ("opaque", repr(condition))


def term_signature(term: Term) -> Signature:
    """Canonical form of one term, invariant under operand renaming.

    Projection positions and the condition's signature belong to the
    term's shape, so they are computed once for all the terms derived
    from one view term; only the operands and the sign are per term.
    """
    shape = term.shape
    condition = shape.condition_signature
    if condition is None:
        condition = shape.condition_signature = condition_signature(
            shape.condition, shape.product
        )
    return (
        "term",
        tuple(_operand_signature(op) for op in term.operands),
        shape.positions,
        condition,
        term.coefficient,
    )


def query_signature(query: Query) -> Signature:
    """Canonical form of a query: the sorted multiset of term signatures.

    Term order is irrelevant to a query's value (the sum over terms is
    commutative), so signatures are sorted before packing.  Sorting uses
    each signature's ``repr`` as the key — a total, deterministic order
    over the heterogeneous value types constants may carry.
    """
    return ("query",) + tuple(
        sorted((term_signature(term) for term in query.terms), key=repr)
    )
