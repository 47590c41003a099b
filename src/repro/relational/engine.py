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

:func:`evaluate_query` does not run that plan once per term: it groups a
query's terms by (shape, which operands are bound) and runs each class
of like terms once, the bound tuples of the whole class as one batch per
operand (``docs/RELATIONAL.md`` §1.5).

Equivalence with the reference evaluator is property-tested
(``tests/property/test_engine_equivalence.py`` and
``tests/property/test_columnar_properties.py``).  The in-memory source,
the warehouse's local evaluation of fully bound terms and the
consistency oracle use this engine; the paper's cost model is *not*
affected (I/O costs are modeled separately, following Appendix D).
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, eq, mul
from typing import Callable, Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import (
    MaskFn,
    batch_join,
    compile_mask,
    join_indices,
    join_rows,
)
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
#: Stored relation -> its transposed extent.  A caller that knows when a
#: relation changes (``MemorySource``) keeps one across evaluations and
#: drops the entry of a relation it writes; the engine fills it and never
#: edits a batch it holds.
Batches = MutableMapping[str, ColumnBatch]

_is_bound = attrgetter("is_bound")

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


def _relation_batch(schema, state: State, batches: Batches) -> ColumnBatch:
    """A stored relation's extent as a columnar batch, transposed once."""
    name = schema.base
    batch = batches.get(name)
    if batch is None:
        try:
            bag = state[name]
        except KeyError:
            raise ExpressionError(f"state has no relation {name!r}") from None
        batch = batches[name] = ColumnBatch.from_bag(bag, schema.arity)
    return batch


def _operand_batch(operand, state: State, batches: Batches) -> ColumnBatch:
    """An operand's extent as a columnar batch."""
    if operand.is_bound:
        return ColumnBatch(
            [[value] for value in operand.tuple.values], [operand.tuple.sign]
        )
    return _relation_batch(operand.schema, state, batches)


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


def evaluate_term(
    term: Term, state: State, batches: Optional[Batches] = None
) -> SignedBag:
    """Evaluate one term with columnar hash joins; equals ``term.evaluate``."""
    if batches is None:
        batches = {}
    steps = _term_plan(term.shape)

    joined = _operand_batch(term.operands[0], state, batches)
    for mask in steps[0][2]:
        joined = joined.compress(mask(joined.columns, len(joined.counts)))

    for step in range(1, len(term.operands)):
        if joined.is_empty():
            # The batch is narrower than the full product here, so the
            # projection below could not resolve — but it is empty anyway.
            return SignedBag()
        _, keys, masks = steps[step]
        joined = batch_join(
            joined, _operand_batch(term.operands[step], state, batches), keys
        )
        for mask in masks:
            joined = joined.compress(mask(joined.columns, len(joined.counts)))

    return joined.gather_columns(term.shape.positions).to_bag(term.coefficient)


def _bound_batch(terms: Sequence[Term], index: int, weighted: bool) -> ColumnBatch:
    """Operand ``index`` of every term of a class: row ``n`` is term
    ``n``'s bound tuple and its count the tuple's sign — times the term's
    coefficient when ``weighted`` (asked of one operand per class)."""
    tuples = [term.operands[index].tuple for term in terms]
    counts = list(map(attrgetter("sign"), tuples))
    if weighted:
        counts = list(map(mul, counts, map(attrgetter("coefficient"), terms)))
    return ColumnBatch(
        [list(column) for column in zip(*map(attrgetter("values"), tuples))],
        counts,
    )


def _keep(
    batch: ColumnBatch, owner: Optional[List[int]], mask: Sequence[object]
) -> Tuple[ColumnBatch, Optional[List[int]]]:
    """Filter a working batch and its owner vector by one mask."""
    return batch.compress(mask), (
        None if owner is None else list(compress(owner, mask))
    )


def _evaluate_class(
    shape: TermShape,
    bound: Tuple[bool, ...],
    terms: Sequence[Term],
    state: State,
    batches: Batches,
) -> SignedBag:
    """Sum of the terms of one (shape, bound mask) class in one plan run.

    The terms differ only in their bound tuples and coefficients, so each
    bound operand becomes one batch with a row per term.  ``owner`` holds
    the term index of every row of the working batch — ``None`` while
    only free operands are joined and a row still belongs to every term —
    and goes through each join and mask with the rows, so that tuples of
    different terms never meet.  The first bound operand after free ones
    is a hash join on the plan's keys (its right row index *is* the
    owner); a later one pairs each row with its owner's tuple and checks
    the keys by equality, never a cross product.
    """
    steps = _term_plan(shape)
    joined = ColumnBatch.empty(0)
    owner: Optional[List[int]] = None
    for step, is_bound in enumerate(bound):
        _, keys, masks = steps[step]
        if is_bound:
            extent = _bound_batch(terms, step, weighted=owner is None)
        else:
            extent = _relation_batch(shape.schemas[step], state, batches)
        if step == 0:
            joined = extent
            if is_bound:
                owner = list(range(len(terms)))
        elif is_bound and owner is not None:
            mine = extent.take(owner)
            width = joined.width
            joined = ColumnBatch(
                joined.columns + mine.columns,
                list(map(mul, joined.counts, mine.counts)),
            )
            if keys:
                columns = joined.columns
                equal = map(
                    eq,
                    zip(*(columns[prefix] for prefix, _ in keys)),
                    zip(*(columns[width + local] for _, local in keys)),
                )
                joined, owner = _keep(joined, owner, list(equal))
        else:
            left, right = join_indices(joined, extent, keys)
            joined = join_rows(joined, extent, left, right)
            if is_bound:
                owner = right
            elif owner is not None:
                owner = list(map(owner.__getitem__, left))
        for mask in masks:
            joined, owner = _keep(
                joined, owner, mask(joined.columns, len(joined.counts))
            )
        if joined.is_empty():
            return SignedBag()
    return joined.gather_columns(shape.positions).to_bag()


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


def term_classes(
    terms: Sequence[Term],
) -> Dict[Tuple[TermShape, Tuple[bool, ...]], List[Term]]:
    """Terms grouped by (shape identity, which operands are bound), in
    first-appearance order, each class in term order.  Terms of a class
    differ only in their bound tuples and coefficients."""
    classes: Dict[Tuple[TermShape, Tuple[bool, ...]], List[Term]] = {}
    for term in terms:
        classes.setdefault(
            (term.shape, tuple(map(_is_bound, term.operands))), []
        ).append(term)
    return classes


def evaluate_query(
    query: Query, state: State, batches: Optional[Batches] = None
) -> SignedBag:
    """Sum of the query's terms, one plan run per class of like terms.

    Terms are grouped in one pass by (shape identity, which operands are
    bound): over n relations a compensating query of hundreds of terms
    has at most ``2^n - 1`` such classes per shape, and inside a class
    the terms differ only in the bound tuples.  A class of two or more
    terms with a bound operand is one :func:`_evaluate_class` run; a
    class of one and a term with no bound operand go through
    :func:`evaluate_term`.  Equals ``query.evaluate(state)``
    (property-tested); the warehouse evaluates its fully bound part
    through this same function with an empty state.

    ``batches`` carries transposed relations between calls (see
    :data:`Batches`); without it each relation the query reads is
    transposed once for this call.
    """
    if batches is None:
        batches = {}
    terms = query.terms
    if len(terms) == 1:
        return evaluate_term(terms[0], state, batches)
    result = SignedBag()
    for (shape, bound), members in term_classes(terms).items():
        if len(members) > 1 and True in bound:
            result.add_bag(_evaluate_class(shape, bound, members, state, batches))
        else:
            for term in members:
                result.add_bag(evaluate_term(term, state, batches))
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
