"""Select-project-join view definitions (Section 4).

A :class:`View` is ``V = pi_proj(sigma_cond(r1 x r2 x ... x rn))`` over
distinct base relations.  It is the object the warehouse holds: algorithms
derive maintenance queries from it via :meth:`View.substitute` (the paper's
``V<U>``), and the consistency checker uses :meth:`View.evaluate` as the
oracle ``V[ss]``.

The paper's running examples write natural joins (``r1 |x| r2`` on the
shared attribute ``X``); :meth:`View.natural_join` builds the equivalent
product-plus-equality-condition form.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExpressionError, SchemaError
from repro.relational.bag import SignedBag
from repro.relational.conditions import (
    Attr,
    Comparison,
    Condition,
    TrueCondition,
    conjunction,
)
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import ProductSchema, RelationSchema, require_distinct
from repro.relational.tuples import SignedTuple

State = Mapping[str, SignedBag]


class View:
    """An SPJ view over distinct base relations.

    Parameters
    ----------
    name:
        View name (used in logs and the warehouse catalog).
    relations:
        The base relation schemas, in product order.
    projection:
        Projected attribute references (qualified or unambiguous bare
        names).
    condition:
        Selection/join condition; defaults to TRUE.
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[RelationSchema],
        projection: Sequence[str],
        condition: Optional[Condition] = None,
    ) -> None:
        require_distinct(relations)
        self.name = name
        self.relations: Tuple[RelationSchema, ...] = tuple(relations)
        self.projection: Tuple[str, ...] = tuple(projection)
        self.condition: Condition = condition if condition is not None else TrueCondition()
        self._schema_by_name: Dict[str, RelationSchema] = {
            s.name: s for s in self.relations
        }
        self._reactive: FrozenSet[str] = frozenset(
            name for s in self.relations for name in (s.name, s.base)
        )
        # Validates projection and condition references eagerly.
        self._term = Term(
            [RelationOperand(s) for s in self.relations],
            self.projection,
            self.condition,
        )
        self.product: ProductSchema = self._term.product

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def natural_join(
        cls,
        name: str,
        relations: Sequence[RelationSchema],
        projection: Sequence[str],
        extra_condition: Optional[Condition] = None,
    ) -> "View":
        """Build a view joining ``relations`` on all shared attribute names.

        For every attribute name appearing in more than one relation, an
        equality between consecutive occurrences is added to the condition,
        reproducing the paper's ``r1 |x| r2 |x| r3`` notation.
        """
        require_distinct(relations)
        owners: Dict[str, List[str]] = {}
        for schema in relations:
            for attribute in schema.attributes:
                owners.setdefault(attribute, []).append(schema.name)
        equalities: List[Condition] = []
        for attribute, names in owners.items():
            for left, right in zip(names, names[1:]):
                equalities.append(
                    Comparison(
                        Attr(f"{left}.{attribute}"), "=", Attr(f"{right}.{attribute}")
                    )
                )
        if extra_condition is not None:
            equalities.append(extra_condition)
        return cls(name, relations, projection, conjunction(equalities))

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def relation_names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.relations)

    def schema_for(self, relation: str) -> RelationSchema:
        try:
            return self._schema_by_name[relation]
        except KeyError:
            raise SchemaError(
                f"view {self.name!r} is not defined over relation {relation!r}"
            ) from None

    def reactive_relations(self) -> FrozenSet[str]:
        """Every relation name an update may carry that V reacts to.

        Each schema's occurrence name and its *base*, so a self-join view
        over ``emp.aliased("manager")`` reacts to updates on ``emp``.  The
        catalog and the shard plan build their interest maps from this.
        """
        return self._reactive

    def definition(self) -> Tuple[object, ...]:
        """Everything that defines V except its name (hashable).

        Two views with equal definitions derive the same ``V<U>`` from the
        same update, which is what lets a catalog build it once for both.
        """
        return (self.relations, self.projection, self.condition)

    def involves(self, relation: str) -> bool:
        """Whether an update to stored relation ``relation`` affects V."""
        return relation in self._reactive

    def output_columns(self) -> Tuple[str, ...]:
        """Display names of the view's columns, in projection order."""
        return self._term.output_columns()

    @property
    def arity(self) -> int:
        return len(self.projection)

    # ------------------------------------------------------------------ #
    # Key analysis (ECA-Key, Section 5.4)
    # ------------------------------------------------------------------ #

    def projected_positions(self) -> Tuple[int, ...]:
        """Product-row positions of the projected columns."""
        return tuple(self.product.resolve(name) for name in self.projection)

    def _position_equivalence(self) -> Dict[int, int]:
        """Union-find roots over product positions equated by the condition.

        Two positions are equivalent when a top-level equality conjunct
        (e.g. a natural-join condition) forces them equal for every view
        tuple, so either one can serve as the other's projected value.
        """
        from repro.relational.conditions import equality_pairs

        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for left, right in equality_pairs(self.condition):
            a, b = find(self.product.resolve(left)), find(self.product.resolve(right))
            if a != b:
                parent[a] = b
        return {position: find(position) for position in parent}

    def key_output_positions(self, relation: str) -> Tuple[int, ...]:
        """Output-column indices holding ``relation``'s key, in key order.

        A key attribute counts as projected if the projection contains it
        *or any attribute the view's condition forces equal to it* (e.g.
        the natural-join twin in another relation).  Raises
        :class:`SchemaError` when the relation declares no key or some key
        attribute is unavailable — exactly the cases where ECA-Key does
        not apply.
        """
        schema = self.schema_for(relation)
        if schema.key is None:
            raise SchemaError(f"relation {relation!r} declares no key")
        start, _ = self.product.relation_span(relation)
        projected = self.projected_positions()
        roots = self._position_equivalence()
        positions: List[int] = []
        for attribute in schema.key:
            product_position = start + schema.position(attribute)
            if product_position in projected:
                positions.append(projected.index(product_position))
                continue
            root = roots.get(product_position, product_position)
            twin = next(
                (
                    index
                    for index, position in enumerate(projected)
                    if roots.get(position, position) == root
                ),
                None,
            )
            if twin is None:
                raise SchemaError(
                    f"view {self.name!r} does not project key attribute "
                    f"{attribute!r} of relation {relation!r} (nor any "
                    f"attribute equated to it)"
                )
            positions.append(twin)
        return tuple(positions)

    def serving_key_positions(self) -> Optional[Tuple[int, ...]]:
        """Output positions the serving tier keys cache entries by.

        Prefers the first base relation whose key the view projects (the
        same analysis ECA-Key relies on); falls back to ``None`` when no
        relation qualifies, in which case the whole row is the cache key.
        """
        for schema in self.relations:
            if schema.key is None:
                continue
            try:
                return self.key_output_positions(schema.name)
            except SchemaError:
                continue
        return None

    def contains_all_keys(self) -> bool:
        """True when the view projects a key of every base relation.

        This is the applicability condition of the ECA-Key algorithm.
        """
        try:
            for schema in self.relations:
                self.key_output_positions(schema.name)
        except SchemaError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def as_query(self) -> Query:
        """The view definition as a one-term query (used by RV)."""
        return Query([self._term])

    def substitute(
        self,
        relation: str,
        signed_tuple: SignedTuple,
        bound: Optional[Dict[RelationSchema, BoundOperand]] = None,
    ) -> Query:
        """``V<U>`` — the incremental query for an update on ``relation``
        (``bound`` as for :meth:`Query.substitute`)."""
        if not self.involves(relation):
            raise ExpressionError(
                f"view {self.name!r} is not defined over relation {relation!r}"
            )
        return self.as_query().substitute(relation, signed_tuple, 1, bound)

    # ------------------------------------------------------------------ #
    # Oracle evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, state: State) -> SignedBag:
        """``V[ss]`` — the view contents over a full source state."""
        return self._term.evaluate(state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.name == other.name and self.definition() == other.definition()

    def __hash__(self) -> int:
        return hash((self.name,) + self.definition())

    def __repr__(self) -> str:
        rels = " x ".join(self.relation_names)
        return f"View({self.name} = pi[{','.join(self.projection)}]({rels}))"
