"""Columnar hash-join evaluation engine for terms and queries.

:meth:`repro.relational.expressions.Term.evaluate` is the *reference*
evaluator: it materializes the full cross product one tuple at a time,
which is exactly the paper's semantics but quadratic-to-cubic in relation
size.  This module provides an equivalent evaluator that:

1. flattens the condition into conjuncts;
2. joins operands left to right, using attribute-equality conjuncts that
   bridge the joined prefix and the next operand as hash-join keys;
3. applies every other conjunct as a filter at the earliest step where all
   of its attributes are available;
4. projects and accumulates signed multiplicities.

Since the columnar refactor the working set is a
:class:`~repro.relational.columns.ColumnBatch` — parallel column lists
plus a signed count vector — and every join/filter/projection step runs
through the vectorized operators in :mod:`repro.relational.batch_ops`
(``map``/``compress`` passes, no per-tuple objects; lint rule RPR009).
:func:`evaluate_term_scalar` preserves the previous row-at-a-time plan as
the divergence check used by the CI ``bench-smoke`` job.

Equivalence with the reference evaluator is property-tested
(``tests/property/test_engine_equivalence.py`` and
``tests/property/test_columnar_properties.py``).  The in-memory source and
the consistency oracle use this engine; the paper's cost model is *not*
affected (I/O costs are modeled separately, following Appendix D).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.errors import ExpressionError
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import MaskFn, batch_join, compile_mask
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import (
    Attr,
    Comparison,
    Condition,
    flatten_conjuncts,
)
from repro.relational.expressions import Query, Term, TermShape

Row = Tuple[object, ...]
State = Mapping[str, SignedBag]

#: One join step of a term plan: the conjuncts to filter by once the step's
#: operand is joined in, the (prefix position, local position) key pairs,
#: and the filters compiled to columnar masks.
_Step = Tuple[List[Condition], List[Tuple[int, int]], List[MaskFn]]


def _max_position(conjunct: Condition, resolve: Callable[[str], int]) -> int:
    """Largest product-row position the conjunct reads (-1 if none)."""
    highest = -1
    for name in conjunct.attributes():
        highest = max(highest, resolve(name))
    return highest


def _operand_batch(operand, state: State) -> ColumnBatch:
    """An operand's extent as a columnar batch."""
    if operand.is_bound:
        return ColumnBatch(
            [[value] for value in operand.tuple.values], [operand.tuple.sign]
        )
    try:
        bag = state[operand.source_relation]
    except KeyError:
        raise ExpressionError(
            f"state has no relation {operand.source_relation!r}"
        ) from None
    return ColumnBatch.from_bag(bag, operand.schema.arity)


def _term_plan(shape: TermShape) -> List[_Step]:
    """Assign conjuncts to join steps and classify hash-join keys.

    Step ``i`` covers product positions ``[0, widths[i])``; each conjunct
    lands at the earliest step where it is decidable.  An attribute
    equality with one side in the joined prefix and one in the new
    operand becomes a hash-join key; everything else is a filter.

    Which operands are bound changes the extents joined, not where a
    conjunct is decidable, so the plan is built once per shape and kept in
    ``shape.plan``.
    """
    if shape.plan is not None:
        return shape.plan  # type: ignore[return-value]
    resolve = shape.product.resolve
    widths: List[int] = []
    offset = 0
    for schema in shape.schemas:
        offset += schema.arity
        widths.append(offset)

    steps: List[_Step] = [([], [], []) for _ in shape.schemas]
    for conjunct in flatten_conjuncts(shape.condition):
        highest = _max_position(conjunct, resolve)
        step = 0
        while widths[step] <= highest:
            step += 1
        is_bridge_equality = (
            step > 0
            and isinstance(conjunct, Comparison)
            and conjunct.op == "="
            and isinstance(conjunct.left, Attr)
            and isinstance(conjunct.right, Attr)
        )
        if is_bridge_equality:
            left = resolve(conjunct.left.name)
            right = resolve(conjunct.right.name)
            prefix_width = widths[step - 1]
            sides = sorted((left, right))
            if sides[0] < prefix_width <= sides[1]:
                # One side in the already-joined prefix, one in the new
                # operand: a genuine hash-join key.
                steps[step][1].append((sides[0], sides[1] - prefix_width))
                continue
        steps[step][0].append(conjunct)
        mask = compile_mask(conjunct, resolve)
        if mask is not None:
            steps[step][2].append(mask)
    shape.plan = steps
    return steps


def evaluate_term(term: Term, state: State) -> SignedBag:
    """Evaluate one term with columnar hash joins; equals ``term.evaluate``."""
    steps = _term_plan(term.shape)

    joined = _operand_batch(term.operands[0], state)
    for mask in steps[0][2]:
        joined = joined.compress(mask(joined.columns, len(joined.counts)))

    for step in range(1, len(term.operands)):
        if joined.is_empty():
            # The batch is narrower than the full product here, so the
            # projection below could not resolve — but it is empty anyway.
            return SignedBag()
        _, keys, masks = steps[step]
        joined = batch_join(joined, _operand_batch(term.operands[step], state), keys)
        for mask in masks:
            joined = joined.compress(mask(joined.columns, len(joined.counts)))

    return joined.gather_columns(term.shape.positions).to_bag(term.coefficient)


def evaluate_term_scalar(term: Term, state: State) -> SignedBag:
    """The pre-columnar row-at-a-time hash-join plan, kept as an oracle.

    Same join/filter placement as :func:`evaluate_term`, executed one
    candidate row at a time with bound row predicates.  The CI
    ``bench-smoke`` job evaluates the measured workload through both
    paths and fails on any divergence.
    """
    extents: List[List[Tuple[Row, int]]] = []
    for operand in term.operands:
        if operand.is_bound:
            extents.append([(operand.tuple.values, operand.tuple.sign)])
        else:
            try:
                bag = state[operand.source_relation]
            except KeyError:
                raise ExpressionError(
                    f"state has no relation {operand.source_relation!r}"
                ) from None
            extents.append(list(bag.items()))

    steps = _term_plan(term.shape)
    predicates: List[List[Callable[[Row], bool]]] = [
        [c.bind(term.product) for c in filters] for filters, _, _ in steps
    ]

    # Step 0: the first operand's extent, filtered.
    joined: List[Tuple[Row, int]] = []
    for row, count in extents[0]:
        if all(p(row) for p in predicates[0]):
            joined.append((row, count))

    # Steps 1..n-1: hash join (or filtered cartesian) with each operand.
    for step in range(1, len(term.operands)):
        extent = extents[step]
        keys = steps[step][1]
        filters = predicates[step]
        fresh: List[Tuple[Row, int]] = []
        if keys:
            buckets: Dict[Tuple[object, ...], List[Tuple[Row, int]]] = {}
            local_positions = [local for _, local in keys]
            for row, count in extent:
                key = tuple(row[p] for p in local_positions)
                buckets.setdefault(key, []).append((row, count))
            prefix_positions = [prefix for prefix, _ in keys]
            for prefix_row, prefix_count in joined:
                key = tuple(prefix_row[p] for p in prefix_positions)
                for row, count in buckets.get(key, ()):
                    combined = prefix_row + row
                    if all(p(combined) for p in filters):
                        fresh.append((combined, prefix_count * count))
        else:
            for prefix_row, prefix_count in joined:
                for row, count in extent:
                    combined = prefix_row + row
                    if all(p(combined) for p in filters):
                        fresh.append((combined, prefix_count * count))
        joined = fresh
        if not joined:
            break

    project = term.shape.project
    result = SignedBag()
    for row, count in joined:
        result.add(project(row), count * term.coefficient)
    return result


def evaluate_query(query: Query, state: State) -> SignedBag:
    """Sum of the optimized term evaluations."""
    result = SignedBag()
    for term in query.terms:
        result.add_bag(evaluate_term(term, state))
    return result


def evaluate_query_scalar(query: Query, state: State) -> SignedBag:
    """Sum of the scalar-oracle term evaluations (divergence checks)."""
    result = SignedBag()
    for term in query.terms:
        result.add_bag(evaluate_term_scalar(term, state))
    return result


def evaluate_view(view, state: State) -> SignedBag:
    """Optimized oracle ``V[ss]``.

    Accepts any view-like object: plain :class:`View`, ``UnionView``, or
    anything exposing ``evaluate_oracle`` (e.g. a multi-view
    :class:`~repro.warehouse.catalog.WarehouseCatalog`, whose oracle rows
    are tagged with their view name).
    """
    custom = getattr(view, "evaluate_oracle", None)
    if custom is not None:
        return custom(state)
    return evaluate_query(view.as_query(), state)
