"""Vectorized operators over :class:`~repro.relational.columns.ColumnBatch`.

Each operator is extensionally equal to the tuple-at-a-time reference
implementation in :mod:`repro.relational.expressions` /
:class:`~repro.relational.bag.SignedBag` (property-tested in
``tests/property/test_columnar_properties.py``) but runs as a few
``map``/``itertools.compress`` passes over flat column lists instead of a
Python-level loop per tuple:

- :func:`compile_mask` compiles any :class:`~repro.relational.conditions.
  Condition` into a columnar mask function (``columns, n -> bools``);
  the condition language is a closed set (TRUE, comparison, AND, OR,
  NOT), so there is no per-row fallback path;
- :func:`batch_join` hash-joins two batches on positional key pairs,
  multiplying signed counts, and falls back to the cartesian product
  when no keys are given; it is :func:`join_indices` (which rows meet)
  followed by a gather of every column.  The engine calls
  :func:`join_indices` itself — handing it the right side's kept
  :func:`bucket_map` — and gathers only the columns its plan carries.

Selection and projection have no operator of their own: a compiled mask
feeds :meth:`ColumnBatch.compress`, and :meth:`ColumnBatch.gather_columns`
projects without consolidation (signed-bag semantics are restored by
``ColumnBatch.to_bag``).

``resolve`` arguments map attribute names to product positions; pass
``ProductSchema.resolve`` (or any compatible callable).
"""

from __future__ import annotations

from itertools import repeat
from operator import and_, mul, not_, or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import (
    _COMPARATORS,
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Not,
    Or,
    TrueCondition,
)

Columns = Sequence[List[object]]
#: A compiled mask: ``(columns, n) -> n booleans``.  ``None`` means
#: "always true" (no filtering needed).
MaskFn = Callable[[Columns, int], List[bool]]


def _comparison_mask(condition: Comparison, resolve: Callable[[str], int]) -> MaskFn:
    compare = _COMPARATORS[condition.op]
    left, right = condition.left, condition.right
    if isinstance(left, Attr) and isinstance(right, Attr):
        i = resolve(left.name)
        j = resolve(right.name)
        return lambda columns, n: list(map(compare, columns[i], columns[j]))
    if isinstance(left, Attr) and isinstance(right, Const):
        i = resolve(left.name)
        value = right.value
        return lambda columns, n: list(map(compare, columns[i], repeat(value)))
    if isinstance(left, Const) and isinstance(right, Attr):
        j = resolve(right.name)
        value = left.value
        return lambda columns, n: list(map(compare, repeat(value), columns[j]))
    if isinstance(left, Const) and isinstance(right, Const):
        verdict = bool(compare(left.value, right.value))
        return lambda columns, n: [verdict] * n
    raise ExpressionError(f"uncompilable comparison operands in {condition!r}")


def compile_mask(
    condition: Condition, resolve: Callable[[str], int]
) -> Optional[MaskFn]:
    """Compile a condition into a columnar mask function.

    Returns ``None`` for the always-true condition so callers can skip
    the filtering pass entirely.  The condition language is closed
    (exactly five node types), so compilation is total.
    """
    if isinstance(condition, TrueCondition):
        return None
    if isinstance(condition, Comparison):
        return _comparison_mask(condition, resolve)
    if isinstance(condition, And):
        parts = [compile_mask(part, resolve) for part in condition.parts]
        masks = [m for m in parts if m is not None]
        if not masks:
            return None
        if len(masks) == 1:
            return masks[0]

        def _and(columns: Columns, n: int) -> List[bool]:
            out = masks[0](columns, n)
            for m in masks[1:]:
                out = list(map(and_, out, m(columns, n)))
            return out

        return _and
    if isinstance(condition, Or):
        parts = [compile_mask(part, resolve) for part in condition.parts]
        if any(m is None for m in parts):
            return None

        def _or(columns: Columns, n: int) -> List[bool]:
            out = parts[0](columns, n)  # type: ignore[misc]
            for m in parts[1:]:
                out = list(map(or_, out, m(columns, n)))  # type: ignore[misc]
            return out

        return _or
    if isinstance(condition, Not):
        inner = compile_mask(condition.part, resolve)
        if inner is None:
            return lambda columns, n: [False] * n
        return lambda columns, n: list(map(not_, inner(columns, n)))
    raise ExpressionError(f"uncompilable condition node {condition!r}")


def bucket_map(batch: ColumnBatch, positions: Sequence[int]) -> Dict[object, List[int]]:
    """``key -> [row index]`` over ``batch``, rows in batch order.

    The key of a row is its value at ``positions[0]`` when there is one
    position, else the tuple of its values at ``positions`` — the form
    :func:`join_indices` probes with, and the form a caller that keeps a
    bucket map up to date must add a new row under.
    """
    columns = batch.columns
    if len(positions) == 1:
        keys: Iterable[object] = columns[positions[0]]
    else:
        keys = zip(*(columns[p] for p in positions))
    buckets: Dict[object, List[int]] = {}
    setdefault = buckets.setdefault
    for index, key in enumerate(keys):
        setdefault(key, []).append(index)
    return buckets


def join_indices(
    left: ColumnBatch,
    right: ColumnBatch,
    keys: Sequence[Tuple[int, int]] = (),
    buckets: Optional[Dict[object, List[int]]] = None,
) -> Tuple[List[int], List[int]]:
    """Row-index pairs ``(left_indices, right_indices)`` of a join.

    Pair ``n`` says row ``left_indices[n]`` of ``left`` meets row
    ``right_indices[n]`` of ``right``: equal on every ``(left_position,
    right_position)`` of ``keys`` (one hash table over ``right``, probed
    in ``left`` order), or every pairing when ``keys`` is empty.  A caller
    that keeps ``right``'s :func:`bucket_map` on the keys' right positions
    passes it as ``buckets``, and the join only probes.  This is the only
    hash-join body; :func:`batch_join` assembles its pairs, and the
    engine's runners gather their carried columns (and the grouped
    runner its owner vector) by them.
    """
    if keys:
        if len(keys) == 1:
            left_key: Iterable[object] = left.columns[keys[0][0]]
        else:
            left_key = zip(*(left.columns[i] for i, _ in keys))
        if buckets is None:
            buckets = bucket_map(right, [j for _, j in keys])
        get = buckets.get
        left_indices: List[int] = []
        right_indices: List[int] = []
        extend_left = left_indices.extend
        extend_right = right_indices.extend
        for index, key in enumerate(left_key):
            matched = get(key)
            if matched:
                extend_left(repeat(index, len(matched)))
                extend_right(matched)
        return left_indices, right_indices
    n_left = len(left.counts)
    right_range = list(range(len(right.counts)))
    return (
        [i for i in range(n_left) for _ in right_range],
        right_range * n_left,
    )


def batch_join(
    left: ColumnBatch,
    right: ColumnBatch,
    keys: Sequence[Tuple[int, int]] = (),
) -> ColumnBatch:
    """Signed hash join of two batches on positional key pairs.

    ``keys`` holds ``(left_position, right_position)`` equality pairs;
    with no keys the result is the full signed cartesian product.  Output
    columns are the left columns followed by the right columns; output
    counts multiply (Section 4.1 sign propagation).
    """
    if not left.counts or not right.counts:
        return ColumnBatch.empty(left.width + right.width)
    left_indices, right_indices = join_indices(left, right, keys)
    columns = [
        list(map(column.__getitem__, left_indices)) for column in left.columns
    ]
    columns += [
        list(map(column.__getitem__, right_indices)) for column in right.columns
    ]
    counts = list(
        map(
            mul,
            map(left.counts.__getitem__, left_indices),
            map(right.counts.__getitem__, right_indices),
        )
    )
    return ColumnBatch(columns, counts)
