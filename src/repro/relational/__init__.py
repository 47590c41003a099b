"""Signed-tuple relational algebra (Section 4 of the paper).

This package implements the data model the paper's algorithms are written
against:

- :mod:`repro.relational.schema` — named relation schemas with optional keys;
- :mod:`repro.relational.bag` — duplicate-retaining relations with signed
  tuples (:class:`SignedBag`), including the paper's ``+`` and ``-``
  operators on relations;
- :mod:`repro.relational.conditions` — a small condition language evaluable
  in Python and renderable to SQL;
- :mod:`repro.relational.expressions` — terms
  ``pi_proj(sigma_cond(r1 x ... x rn))``, sum-of-term queries, and the
  substitution operator ``Q<U>``;
- :mod:`repro.relational.views` — select-project-join view definitions with
  a natural-join convenience constructor;
- :mod:`repro.relational.signature` — canonical structural signatures for
  terms and queries under renaming (the shared-compensation planner's
  grouping key).
"""

from repro.relational.bag import SignedBag
from repro.relational.batch_ops import batch_join, compile_mask
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Not,
    Or,
    TrueCondition,
    attr,
    conjunction,
)
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import ProductSchema, RelationSchema
from repro.relational.signature import (
    condition_signature,
    query_signature,
    term_signature,
)
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.unions import UnionView
from repro.relational.views import View

__all__ = [
    "And",
    "Attr",
    "BoundOperand",
    "ColumnBatch",
    "Comparison",
    "Condition",
    "Const",
    "MINUS",
    "Not",
    "Or",
    "PLUS",
    "ProductSchema",
    "Query",
    "RelationOperand",
    "RelationSchema",
    "SignedBag",
    "SignedTuple",
    "Term",
    "TrueCondition",
    "UnionView",
    "View",
    "attr",
    "batch_join",
    "compile_mask",
    "condition_signature",
    "conjunction",
    "query_signature",
    "term_signature",
]
