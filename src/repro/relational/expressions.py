"""Terms, queries, and the substitution operator ``Q<U>`` (Section 4.2).

A *term* is ``pi_proj(sigma_cond(~r1 x ~r2 x ... x ~rn))`` where each
``~ri`` is either the base relation ``ri`` (a :class:`RelationOperand`) or
a concrete signed tuple of ``ri`` (a :class:`BoundOperand`).  A *query* is
a sum of terms; the paper's ``-`` between terms is encoded as a ``-1``
coefficient.

Substituting an update ``U`` on relation ``rk`` into a term binds ``rk``'s
operand to ``U``'s signed tuple; if the operand is already bound the result
is the empty query (the paper's ``Ti<U> = {}`` rule), which is why
``Q<U1,...,Uk>`` vanishes as soon as two updates touch the same relation.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.relational.bag import SignedBag
from repro.relational.conditions import Condition, TrueCondition
from repro.relational.schema import ProductSchema, RelationSchema
from repro.relational.tuples import SignedTuple

Row = Tuple[object, ...]
State = Mapping[str, SignedBag]


class RelationOperand:
    """An unbound occurrence of a base relation inside a term."""

    __slots__ = ("schema",)

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema

    @property
    def name(self) -> str:
        """The occurrence's name within the term (its alias, if any)."""
        return self.schema.name

    @property
    def source_relation(self) -> str:
        """The stored relation this occurrence reads from."""
        return self.schema.base

    @property
    def is_bound(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationOperand) and self.schema == other.schema

    def __hash__(self) -> int:
        return hash(("RelationOperand", self.schema))

    def __repr__(self) -> str:
        return self.schema.name


class BoundOperand:
    """A term operand fixed to one signed tuple of its relation."""

    __slots__ = ("schema", "tuple")

    def __init__(self, schema: RelationSchema, signed_tuple: SignedTuple) -> None:
        schema.validate_row(signed_tuple.values)
        self.schema = schema
        self.tuple = signed_tuple

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def source_relation(self) -> str:
        return self.schema.base

    @property
    def is_bound(self) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoundOperand)
            and self.schema == other.schema
            and self.tuple == other.tuple
        )

    def __hash__(self) -> int:
        return hash(("BoundOperand", self.schema, self.tuple))

    def __repr__(self) -> str:
        return f"{self.schema.name}={self.tuple!r}"


Operand = object  # RelationOperand | BoundOperand


class Term:
    """One ``pi_proj(sigma_cond(~r1 x ... x ~rn))`` with a +/-1 coefficient."""

    __slots__ = (
        "operands",
        "projection",
        "condition",
        "coefficient",
        "product",
        "_proj_positions",
        "_predicate",
    )

    def __init__(
        self,
        operands: Sequence[Operand],
        projection: Sequence[str],
        condition: Optional[Condition] = None,
        coefficient: int = 1,
    ) -> None:
        if not operands:
            raise ExpressionError("a term needs at least one operand")
        if coefficient not in (1, -1):
            raise ExpressionError(f"term coefficient must be +1 or -1, got {coefficient!r}")
        self.operands: Tuple[Operand, ...] = tuple(operands)
        self.product = ProductSchema([op.schema for op in self.operands])
        self.projection: Tuple[str, ...] = tuple(projection)
        if not self.projection:
            raise ExpressionError("a term needs a non-empty projection")
        self.condition: Condition = condition if condition is not None else TrueCondition()
        self.coefficient = coefficient
        # Resolve names eagerly so malformed terms fail at construction
        # time; the condition's row predicate is bound lazily because
        # compensation machinery builds thousands of terms that are
        # evaluated (if at all) through the columnar engine, which
        # compiles masks itself and never calls the predicate.
        self._proj_positions: Tuple[int, ...] = tuple(
            self.product.resolve(name) for name in self.projection
        )
        for name in self.condition.attributes():
            self.product.resolve(name)
        self._predicate: Optional[Callable[[Row], bool]] = None

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Occurrence names (aliases) in operand order."""
        return tuple(op.name for op in self.operands)

    @property
    def source_relation_names(self) -> Tuple[str, ...]:
        """Stored relations read, in operand order (duplicates possible)."""
        return tuple(op.source_relation for op in self.operands)

    def free_relations(self) -> Tuple[str, ...]:
        """Names of operands still bound to full base relations."""
        return tuple(op.name for op in self.operands if not op.is_bound)

    def bound_operands(self) -> Tuple[BoundOperand, ...]:
        return tuple(op for op in self.operands if op.is_bound)

    def is_fully_bound(self) -> bool:
        """True when no base relation remains — evaluable without the source."""
        return all(op.is_bound for op in self.operands)

    def operand_for(self, relation: str) -> Operand:
        for op in self.operands:
            if op.name == relation:
                return op
        raise ExpressionError(f"term does not involve relation {relation!r}")

    def output_columns(self) -> Tuple[str, ...]:
        """Display names of the projected columns."""
        return tuple(self.product.output_name(name) for name in self.projection)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def negate(self) -> "Term":
        return Term(self.operands, self.projection, self.condition, -self.coefficient)

    def substitute_update(
        self, relation: str, signed_tuple: SignedTuple
    ) -> List["Term"]:
        """``T<U>`` in general — multiple occurrences handled correctly.

        The paper's hint ("handling updates to such relations once for
        each appearance") worked out: with free occurrences ``o_1..o_m``
        of the updated relation, the delta term expands by
        inclusion-exclusion over the non-empty subsets ``S`` of
        occurrences, each bound to ``tuple(U)`` with an extra sign
        ``(-1)^(|S|+1)``::

            T<U> = sum over S != {} of (-1)^(|S|+1) * T[S := tuple(U)]

        because the old extent of each occurrence is ``new - delta`` and
        the product expands multilinearly.  For one occurrence this is
        the single term with that operand bound (Section 4.2), and the
        identity preserves Lemma B.2,
        so every compensation-based algorithm works unchanged on
        self-join views.  Returns ``[]`` when the term has occurrences of
        ``relation`` but all are already bound (the generalized vanishing
        rule), and raises when it has none.
        """
        occurrences = [
            i for i, op in enumerate(self.operands) if op.source_relation == relation
        ]
        if not occurrences:
            raise ExpressionError(f"term does not involve relation {relation!r}")
        free = [i for i in occurrences if not self.operands[i].is_bound]
        out: List[Term] = []
        for size in range(1, len(free) + 1):
            flip = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(free, size):
                new_operands = list(self.operands)
                for index in subset:
                    new_operands[index] = BoundOperand(
                        self.operands[index].schema, signed_tuple
                    )
                out.append(
                    Term(
                        new_operands,
                        self.projection,
                        self.condition,
                        self.coefficient * flip,
                    )
                )
        return out

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, state: State) -> SignedBag:
        """Evaluate against ``state`` (relation name -> SignedBag).

        Sign propagation follows Section 4.1: each factor contributes its
        sign (and multiplicity), selection and projection pass signs
        through, and the term's coefficient multiplies the result.
        """
        extents: List[List[Tuple[Row, int]]] = []
        for op in self.operands:
            if op.is_bound:
                extents.append([(op.tuple.values, op.tuple.sign)])
            else:
                try:
                    bag = state[op.source_relation]
                except KeyError:
                    raise ExpressionError(
                        f"state has no relation {op.source_relation!r}"
                    ) from None
                extents.append(list(bag.items()))
        result = SignedBag()
        predicate = self._predicate
        if predicate is None:
            predicate = self.condition.bind(self.product)
            self._predicate = predicate
        positions = self._proj_positions
        for combo in itertools.product(*extents):
            row: Row = tuple(itertools.chain.from_iterable(part for part, _ in combo))
            if not predicate(row):
                continue
            count = self.coefficient
            for _, factor in combo:
                count *= factor
            result.add(tuple(row[i] for i in positions), count)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return (
            self.operands == other.operands
            and self.projection == other.projection
            and self.condition == other.condition
            and self.coefficient == other.coefficient
        )

    def __hash__(self) -> int:
        return hash((self.operands, self.projection, self.condition, self.coefficient))

    def __repr__(self) -> str:
        sign = "" if self.coefficient > 0 else "-"
        body = " x ".join(repr(op) for op in self.operands)
        cond = "" if isinstance(self.condition, TrueCondition) else f" | {self.condition!r}"
        return f"{sign}pi[{','.join(self.projection)}]({body}{cond})"


class Query:
    """A sum of terms, the unit shipped from warehouse to source."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        self.terms: Tuple[Term, ...] = tuple(terms)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def __add__(self, other: "Query") -> "Query":
        return Query(self.terms + other.terms)

    def __sub__(self, other: "Query") -> "Query":
        return Query(self.terms + tuple(t.negate() for t in other.terms))

    def __neg__(self) -> "Query":
        return Query(tuple(t.negate() for t in self.terms))

    def substitute(self, relation: str, signed_tuple: SignedTuple) -> "Query":
        """``Q<U> = sum_i T_i<U>``, dropping vanished terms.

        Terms that do not involve ``relation`` at all contribute nothing
        (their value is unaffected by the update); self-join terms expand
        by inclusion-exclusion (see :meth:`Term.substitute_update`).
        """
        substituted: List[Term] = []
        for term in self.terms:
            if relation not in term.source_relation_names:
                continue
            substituted.extend(term.substitute_update(relation, signed_tuple))
        return Query(substituted)

    # ------------------------------------------------------------------ #
    # Partitioning (used by algorithms and by the cost model)
    # ------------------------------------------------------------------ #

    def is_empty(self) -> bool:
        return not self.terms

    def fully_bound_terms(self) -> "Query":
        """Terms needing no source access (evaluable at the warehouse)."""
        return Query(t for t in self.terms if t.is_fully_bound())

    def source_terms(self) -> "Query":
        """Terms that reference at least one base relation."""
        return Query(t for t in self.terms if not t.is_fully_bound())

    def term_count(self) -> int:
        return len(self.terms)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, state: State) -> SignedBag:
        result = SignedBag()
        for term in self.terms:
            result.add_bag(term.evaluate(state))
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "Query(empty)"
        parts = []
        for i, term in enumerate(self.terms):
            rendered = repr(term)
            if i and not rendered.startswith("-"):
                rendered = "+ " + rendered
            elif rendered.startswith("-"):
                rendered = "- " + rendered[1:]
            parts.append(rendered)
        return "Query(" + " ".join(parts) + ")"


def empty_query() -> Query:
    """The query with no terms (evaluates to the empty relation)."""
    return Query()
