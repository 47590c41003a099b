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
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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

    is_bound = False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RelationOperand) and self.schema == other.schema

    def __hash__(self) -> int:
        return hash(("RelationOperand", self.schema))

    def __repr__(self) -> str:
        return self.schema.name


class BoundOperand:
    """A term operand fixed to one signed tuple of its relation.

    ``encoded`` is a memo slot owned by :mod:`repro.durability.codec`:
    the operand's binding as an encoded query's term rows write it.
    ``Q<U>`` binds one operand object per updated schema and every later
    compensating query keeps it, so one rendering serves every term and
    query that holds the operand.
    """

    __slots__ = ("schema", "tuple", "encoded")

    def __init__(self, schema: RelationSchema, signed_tuple: SignedTuple) -> None:
        schema.validate_row(signed_tuple.values)
        self.schema = schema
        self.tuple = signed_tuple
        self.encoded: Optional[str] = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def source_relation(self) -> str:
        return self.schema.base

    is_bound = True

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


class TermShape:
    """What substitution and negation leave alone, built and checked once.

    The operand schemas, the product's name resolution, the projection
    with its resolved positions and the validated condition depend only on
    *which relations* a term ranges over, never on which of them are bound
    to a tuple or on the sign.  Every term reached from one ``Term(...)``
    by :meth:`Term.negate`, :meth:`Term.substitute_update` or
    :meth:`Term.with_operands` holds the same shape object, so ``Q<U>``
    over a k-term pending query builds k operand tuples and nothing else.

    ``condition_signature`` and ``encoded`` are memo slots owned by
    :mod:`repro.relational.signature` and :mod:`repro.durability.codec`:
    both are functions of the shape alone and are filled on first use.
    ``encoded`` is the shape's entry in an encoded query's shapes table —
    one string, which is also what tells two shapes apart there, so
    equal shapes held as different objects still make one entry.
    Two more map a bound-operand mask to what is built for it, one mask
    at a time: ``plans``, owned by :mod:`repro.relational.engine`, to the
    join plan, and ``bound_checks``, owned by
    :mod:`repro.core.compensation`, to the conjuncts that read bound
    operands only, compiled.  Beside it ``probe_keys``, also owned by
    :mod:`repro.core.compensation`, maps a mask and the operand an update
    would bind to where the first of those checks reads, when it is an
    equality a probe can decide.
    """

    __slots__ = (
        "schemas",
        "product",
        "projection",
        "positions",
        "project",
        "condition",
        "source_relation_names",
        "occurrences",
        "plans",
        "condition_signature",
        "encoded",
        "bound_checks",
        "probe_keys",
    )

    def __init__(
        self,
        schemas: Sequence[RelationSchema],
        projection: Sequence[str],
        condition: Optional[Condition],
    ) -> None:
        self.schemas: Tuple[RelationSchema, ...] = tuple(schemas)
        self.product = ProductSchema(self.schemas)
        self.projection: Tuple[str, ...] = tuple(projection)
        if not self.projection:
            raise ExpressionError("a term needs a non-empty projection")
        self.condition: Condition = condition if condition is not None else TrueCondition()
        # Resolve names eagerly so malformed terms fail at construction
        # time.  The condition's row predicate is not kept: the columnar
        # engine compiles masks itself, and only the reference evaluator
        # (:meth:`Term.evaluate`) binds it, once per call.
        self.positions: Tuple[int, ...] = tuple(
            self.product.resolve(name) for name in self.projection
        )
        for name in self.condition.attributes():
            self.product.resolve(name)
        #: Product row -> projected row (always a tuple).
        self.project: Callable[[Row], Row] = (
            itemgetter(*self.positions)
            if len(self.positions) > 1
            else _single_column(self.positions[0])
        )
        self.source_relation_names: Tuple[str, ...] = tuple(
            schema.base for schema in self.schemas
        )
        occurrences: Dict[str, List[int]] = {}
        for index, base in enumerate(self.source_relation_names):
            occurrences.setdefault(base, []).append(index)
        #: Stored relation -> indices of the operands that read it.
        self.occurrences: Dict[str, Tuple[int, ...]] = {
            base: tuple(indices) for base, indices in occurrences.items()
        }
        self.plans: Dict[Tuple[bool, ...], object] = {}
        self.condition_signature: Optional[Tuple[object, ...]] = None
        self.encoded: Optional[str] = None
        self.bound_checks: Dict[Tuple[bool, ...], Tuple[Callable[..., object], ...]] = {}
        self.probe_keys: Dict[
            Tuple[Tuple[bool, ...], int], Optional[Tuple[int, int, int]]
        ] = {}


def _single_column(position: int) -> Callable[[Row], Row]:
    return lambda row: (row[position],)


def _check_coefficient(coefficient: int) -> None:
    if coefficient not in (1, -1):
        raise ExpressionError(f"term coefficient must be +1 or -1, got {coefficient!r}")


class Term:
    """One ``pi_proj(sigma_cond(~r1 x ... x ~rn))`` with a +/-1 coefficient.

    A term is its operands, its coefficient and a :class:`TermShape`.
    This constructor is the only place a shape is built (and therefore
    the only place projection and condition names are validated); terms
    derived from this one share it by reference.
    """

    __slots__ = ("operands", "coefficient", "shape")

    def __init__(
        self,
        operands: Sequence[Operand],
        projection: Sequence[str],
        condition: Optional[Condition] = None,
        coefficient: int = 1,
    ) -> None:
        if not operands:
            raise ExpressionError("a term needs at least one operand")
        _check_coefficient(coefficient)
        self.operands: Tuple[Operand, ...] = tuple(operands)
        self.coefficient = coefficient
        self.shape = TermShape(
            [op.schema for op in self.operands], projection, condition
        )

    def _derive(self, operands: Tuple[Operand, ...], coefficient: int) -> "Term":
        """A term of this term's shape.  Callers guarantee that operand
        ``i`` ranges over ``shape.schemas[i]``; that is what makes the
        shape's validation hold for the new term without repeating it."""
        term = Term.__new__(Term)
        term.operands = operands
        term.coefficient = coefficient
        term.shape = self.shape
        return term

    def with_operands(self, operands: Sequence[Operand], coefficient: int) -> "Term":
        """This term's projection and condition over other operands of the
        same schemas — for callers that build many terms of one layout
        (one per binding row, one per decoded term)."""
        new = tuple(operands)
        schemas = self.shape.schemas
        if len(new) != len(schemas) or any(
            op.schema is not schema and op.schema != schema
            for op, schema in zip(new, schemas)
        ):
            raise ExpressionError(
                f"operands {new!r} do not range over {self.shape.product!r}"
            )
        _check_coefficient(coefficient)
        return self._derive(new, coefficient)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def projection(self) -> Tuple[str, ...]:
        return self.shape.projection

    @property
    def condition(self) -> Condition:
        return self.shape.condition

    @property
    def product(self) -> ProductSchema:
        return self.shape.product

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """Occurrence names (aliases) in operand order."""
        return tuple(op.name for op in self.operands)

    @property
    def source_relation_names(self) -> Tuple[str, ...]:
        """Stored relations read, in operand order (duplicates possible)."""
        return self.shape.source_relation_names

    def is_fully_bound(self) -> bool:
        """True when no base relation remains — evaluable without the source."""
        for op in self.operands:
            if not op.is_bound:
                return False
        return True

    def output_columns(self) -> Tuple[str, ...]:
        """Display names of the projected columns."""
        return tuple(self.product.output_name(name) for name in self.projection)

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def negate(self) -> "Term":
        return self._derive(self.operands, -self.coefficient)

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
        try:
            occurrences = self.shape.occurrences[relation]
        except KeyError:
            raise ExpressionError(
                f"term does not involve relation {relation!r}"
            ) from None
        return self._substitute(occurrences, signed_tuple, {}, 1)

    def _substitute(
        self,
        occurrences: Tuple[int, ...],
        signed_tuple: SignedTuple,
        bound: Dict[RelationSchema, BoundOperand],
        coefficient: int,
    ) -> List["Term"]:
        """``coefficient * T<U>`` at the given operand indices, taking the
        update's bound operand per schema from ``bound`` (and adding it
        there on first need), so that one ``Q<U>`` validates the tuple
        once per schema rather than once per term."""
        operands = self.operands
        free = [i for i in occurrences if not operands[i].is_bound]
        out: List[Term] = []
        for size in range(1, len(free) + 1):
            flip = self.coefficient * (coefficient if size % 2 == 1 else -coefficient)
            for subset in itertools.combinations(free, size):
                new_operands = list(operands)
                for index in subset:
                    schema = operands[index].schema
                    operand = bound.get(schema)
                    if operand is None:
                        operand = bound[schema] = BoundOperand(schema, signed_tuple)
                    new_operands[index] = operand
                out.append(self._derive(tuple(new_operands), flip))
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
        shape = self.shape
        predicate = shape.condition.bind(shape.product)
        result = SignedBag()
        if self.is_fully_bound():
            # Appendix D's local evaluation: one candidate row, no source.
            row = tuple(
                itertools.chain.from_iterable(op.tuple.values for op in self.operands)
            )
            if predicate(row):
                count = self.coefficient
                for op in self.operands:
                    count *= op.tuple.sign
                result.add(shape.project(row), count)
            return result
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
        project = shape.project
        for combo in itertools.product(*extents):
            row = tuple(itertools.chain.from_iterable(part for part, _ in combo))
            if not predicate(row):
                continue
            count = self.coefficient
            for _, factor in combo:
                count *= factor
            result.add(project(row), count)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if self.coefficient != other.coefficient or self.operands != other.operands:
            return False
        mine, theirs = self.shape, other.shape
        return mine is theirs or (
            mine.projection == theirs.projection
            and mine.condition == theirs.condition
        )

    def __hash__(self) -> int:
        shape = self.shape
        return hash((self.operands, shape.projection, shape.condition, self.coefficient))

    def __repr__(self) -> str:
        sign = "" if self.coefficient > 0 else "-"
        body = " x ".join(repr(op) for op in self.operands)
        cond = "" if isinstance(self.condition, TrueCondition) else f" | {self.condition!r}"
        return f"{sign}pi[{','.join(self.projection)}]({body}{cond})"


class Query:
    """A sum of terms, the unit shipped from warehouse to source.

    Immutable once built, which is what lets ``encoded`` — a memo slot
    owned by :mod:`repro.durability.codec`, filled the first time the
    query is put on the wire or in a snapshot — stand for it ever after.
    ``probes`` is another, owned by :mod:`repro.core.compensation`: per
    updated relation, the query's terms indexed by the value an update
    must equal for ``Q<U>``'s term to survive its first check, built the
    first time the query is pending when such an update arrives.  Neither
    is persisted; a decoded query fills both again on first use.
    """

    __slots__ = ("terms", "encoded", "probes")

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        self.terms: Tuple[Term, ...] = tuple(terms)
        self.encoded: Optional[str] = None
        self.probes: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #

    def __add__(self, other: "Query") -> "Query":
        return Query(self.terms + other.terms)

    def __sub__(self, other: "Query") -> "Query":
        return Query(self.terms + tuple(t.negate() for t in other.terms))

    def __neg__(self) -> "Query":
        return Query(tuple(t.negate() for t in self.terms))

    def substitute(
        self, relation: str, signed_tuple: SignedTuple, coefficient: int = 1
    ) -> "Query":
        """``coefficient * Q<U>`` with ``Q<U> = sum_i T_i<U>``, dropping
        vanished terms.

        Terms that do not involve ``relation`` at all contribute nothing
        (their value is unaffected by the update); self-join terms expand
        by inclusion-exclusion (see :meth:`Term.substitute_update`).

        ``coefficient=-1`` is the compensation ``-Q<U>`` of Section 5.2
        made in one pass: each term is built with its final coefficient,
        in the order ``Query() - Q<U>`` would list it, so a caller can
        extend one term list over the whole UQS.  A term in which
        ``relation`` occurs once — every term of a view over distinct
        relations — is skipped before any call when that occurrence is
        already bound, and otherwise made by splicing the update's operand
        into the operand tuple.
        """
        _check_coefficient(coefficient)
        substituted: List[Term] = []
        bound: Dict[RelationSchema, BoundOperand] = {}
        for term in self.terms:
            occurrences = term.shape.occurrences.get(relation)
            if not occurrences:
                continue
            if len(occurrences) > 1:
                substituted.extend(
                    term._substitute(occurrences, signed_tuple, bound, coefficient)
                )
                continue
            index = occurrences[0]
            operands = term.operands
            replaced = operands[index]
            if replaced.is_bound:
                continue
            operand = bound.get(replaced.schema)
            if operand is None:
                operand = bound[replaced.schema] = BoundOperand(
                    replaced.schema, signed_tuple
                )
            substituted.append(
                term._derive(
                    operands[:index] + (operand,) + operands[index + 1 :],
                    term.coefficient * coefficient,
                )
            )
        return Query(substituted)

    # ------------------------------------------------------------------ #
    # Partitioning (used by algorithms and by the cost model)
    # ------------------------------------------------------------------ #

    def is_empty(self) -> bool:
        return not self.terms

    def partition(self) -> Tuple["Query", "Query"]:
        """``(fully bound, source)`` terms, each in query order: what the
        warehouse evaluates itself and what it must ship (Appendix D)."""
        local: List[Term] = []
        remote: List[Term] = []
        for term in self.terms:
            (local if term.is_fully_bound() else remote).append(term)
        return Query(local), Query(remote)

    def source_terms(self) -> "Query":
        """Terms that reference at least one base relation."""
        return self.partition()[1]

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
