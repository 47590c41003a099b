"""Union and difference views — Section 7's "more complex expressions".

The paper's future work includes "views defined by more complex
relational algebra expressions (e.g., using union and/or difference)".
Our query algebra already *is* a sum of signed SPJ terms, so the
extension is a thin layer: a :class:`UnionView` is a signed combination
of SPJ branches, its definition query is the concatenation of the branch
terms (with ``-1`` coefficients for subtracted branches), and
``V<U> = sum_i T_i<U>`` falls out of the existing
:meth:`~repro.relational.expressions.Query.substitute` — terms not
involving the updated relation contribute nothing, self-join terms expand
by inclusion-exclusion.  Lemma B.2 is linear in the terms, so every
compensation-based algorithm works unchanged.

Semantics notes:

- **UNION ALL** (bag union): multiplicities add across branches.  Fully
  supported.
- **Difference** is *signed* (Z-relation) difference: a maintained view
  whose data would make some multiplicity negative is a modeling error
  and strict installs raise :class:`~repro.errors.ViewStateError`.  (Bag
  "monus" is not linear and therefore not maintainable by pure delta
  algebra — the same restriction applies to the counting algorithms the
  paper cites, e.g. [GMS93].)
- All branches must have the same output arity; column names are taken
  from the first branch.
- ECA-Key does not apply (a union tuple's provenance is ambiguous), and
  :meth:`contains_all_keys` is accordingly ``False``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Sequence, Tuple, Union

from repro.errors import ExpressionError, SchemaError
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.views import View

State = Mapping[str, SignedBag]

Branch = Union[View, Tuple[int, View]]


class UnionView:
    """A signed combination of SPJ views, maintained as one warehouse view.

    Parameters
    ----------
    name:
        View name.
    branches:
        A sequence of :class:`View` objects (each weighted +1) or
        ``(sign, View)`` pairs with sign +1 (union all) or -1
        (difference).
    """

    def __init__(self, name: str, branches: Sequence[Branch]) -> None:
        if not branches:
            raise ExpressionError("a union view needs at least one branch")
        self.name = name
        self.branches: List[Tuple[int, View]] = []
        for branch in branches:
            if isinstance(branch, tuple):
                sign, view = branch
            else:
                sign, view = 1, branch
            if sign not in (1, -1):
                raise ExpressionError(f"branch sign must be +1 or -1, got {sign!r}")
            self.branches.append((sign, view))
        arities = {view.arity for _, view in self.branches}
        if len(arities) != 1:
            raise SchemaError(
                f"union branches must share one output arity, got {sorted(arities)}"
            )
        self.arity = arities.pop()
        self._reactive: FrozenSet[str] = frozenset().union(
            *(view.reactive_relations() for _, view in self.branches)
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    @property
    def relation_names(self) -> Tuple[str, ...]:
        """All stored relations read by any branch, deduplicated."""
        seen: List[str] = []
        for _, view in self.branches:
            for schema in view.relations:
                if schema.base not in seen:
                    seen.append(schema.base)
        return tuple(seen)

    def reactive_relations(self) -> FrozenSet[str]:
        """Every relation name some branch reacts to (:meth:`View.reactive_relations`)."""
        return self._reactive

    def definition(self) -> Tuple[object, ...]:
        """The signed branches' definitions (:meth:`View.definition`)."""
        return tuple((sign, view.definition()) for sign, view in self.branches)

    def involves(self, relation: str) -> bool:
        return relation in self._reactive

    def output_columns(self) -> Tuple[str, ...]:
        return self.branches[0][1].output_columns()

    def contains_all_keys(self) -> bool:
        """ECA-Key never applies to union views (ambiguous provenance)."""
        return False

    def key_output_positions(self, relation: str) -> Tuple[int, ...]:
        """Always raises: key-based local handling needs provenance."""
        raise SchemaError(
            f"union view {self.name!r} cannot map keys to output columns"
        )

    def serving_key_positions(self) -> None:
        """No serving key either: the cache falls back to whole-row keys."""
        return None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def as_query(self) -> Query:
        total = Query()
        for sign, view in self.branches:
            query = view.as_query()
            total = total + (query if sign > 0 else -query)
        return total

    def substitute(self, relation: str, signed_tuple) -> Query:
        if not self.involves(relation):
            raise ExpressionError(
                f"view {self.name!r} is not defined over relation {relation!r}"
            )
        return self.as_query().substitute(relation, signed_tuple)

    # ------------------------------------------------------------------ #
    # Oracle
    # ------------------------------------------------------------------ #

    def evaluate(self, state: State) -> SignedBag:
        from repro.relational.engine import evaluate_query

        return evaluate_query(self.as_query(), state)

    def __repr__(self) -> str:
        parts = []
        for index, (sign, view) in enumerate(self.branches):
            symbol = "" if index == 0 and sign > 0 else (" + " if sign > 0 else " - ")
            parts.append(f"{symbol}{view.name}")
        return f"UnionView({self.name} = {''.join(parts)})"
