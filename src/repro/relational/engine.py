"""Columnar hash-join evaluation engine for terms and queries.

:meth:`repro.relational.expressions.Term.evaluate` is the *reference*
evaluator: it materializes the full cross product one tuple at a time,
which is exactly the paper's semantics but quadratic-to-cubic in relation
size.  This module provides an equivalent evaluator that:

1. flattens the condition into conjuncts;
2. joins the bound operands first, then expands from them one free
   operand at a time — the first (in product order) that an attribute
   equality connects to what is already joined, or the first free one
   when none is; a term with no bound operand joins in product order —
   using the equalities that bridge the joined prefix and the next
   operand as hash-join keys.  A stored relation is *probed*
   through a ``key -> [row index]`` bucket map on those keys, which a
   caller that keeps its relations' batches keeps too (Appendix D's
   Scenario 1: a term is expanded from its bound tuple by index probes);
3. applies every other conjunct as a filter at the earliest step where all
   of its attributes are available;
4. carries, from each step to the next, only the columns that a later
   step's keys or filters, or the projection, read — so the last step's
   batch is the projection — and accumulates signed multiplicities.

That order, placement and carried layout is :class:`JoinPlan`, built
once per (shape, bound mask) by :func:`join_plan` — the one planner;
product order is simply the plan of the all-free mask.

The working set is a :class:`~repro.relational.columns.ColumnBatch` —
parallel column lists plus a signed count vector — and each step makes
exactly one: it probes through
:func:`~repro.relational.batch_ops.join_indices` (the one hash-join
body), gathers the live columns of both sides by the row pairs, filters
those plain lists by its compiled masks and keeps the step's layout
(``map``/``compress`` passes, no per-tuple objects; checked by
``tests/unit/test_invariants.py``).  For one bound operand of Example 6
a term gathers 2 + 2 columns, where joining whole products gathered
4 + 6.  :func:`evaluate_term_scalar` runs the all-free plan one row at a
time over product positions, as the divergence check used by the CI
``bench-smoke`` job.

:func:`evaluate_query` does not run a plan once per term: it groups a
query's terms by (shape, which operands are bound) and runs each class
of like terms once, the bound tuples of the whole class as one batch per
operand (``docs/RELATIONAL.md`` §1.5).

A class of one, a class with no bound operand and a single-term query
keep the per-term runner (:func:`_evaluate_term`).  Sending every term
through :func:`_evaluate_class` instead (a single-term query still
ungrouped, a class of one without an owner vector) was measured and
lost: ``updates_per_s`` −4.9 % on ``eca_paced``, −3.4 % on
``eca_storm``, −10.6 % on ``fanin_sharded`` and −5.1 % on
``read_storm`` (median ratios over 6 alternating rounds of
``bench/run.py --seconds 3 --seed 0`` on a 2-CPU container, ahead in at
most 2 of 6 on any workload, ``msgs_per_update`` unchanged); grouping
single-term queries too cost −9 % to −11 %.

Equivalence with the reference evaluator is property-tested
(``tests/property/test_engine_equivalence.py`` and
``tests/property/test_columnar_properties.py``).  The in-memory source,
the warehouse's local evaluation of fully bound terms and the
consistency oracle use this engine; the paper's cost model is *not*
affected (I/O costs are modeled separately, following Appendix D).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import attrgetter, eq, itemgetter, mul
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
)
from weakref import WeakValueDictionary

from repro.errors import ExpressionError
from repro.relational.bag import SignedBag
from repro.relational.batch_ops import MaskFn, bucket_map, compile_mask, join_indices
from repro.relational.columns import ColumnBatch
from repro.relational.conditions import (
    Attr,
    Comparison,
    Condition,
    flatten_conjuncts,
)
from repro.relational.expressions import Query, Term, TermShape
from repro.relational.schema import ProductSchema

Row = Tuple[object, ...]
State = Mapping[str, SignedBag]
#: Stored relation -> its transposed extent.  A caller that knows when a
#: relation changes (``MemorySource``) keeps one across evaluations and
#: maintains it between them; the engine fills it and never edits a batch
#: it holds.  A row of count 0 in a kept batch is a deleted row.
Batches = MutableMapping[str, ColumnBatch]
#: Stored relation -> key positions -> bucket map (key -> indices of the
#: rows of the relation's batch in :data:`Batches` holding that key): what
#: a probe reads.  Kept and maintained with the batches it indexes; the
#: engine fills an entry the first time a plan probes it.
Indexes = MutableMapping[str, Dict[Tuple[int, ...], Dict[object, List[int]]]]

_is_bound = attrgetter("is_bound")


def _is_equality(conjunct: Condition) -> bool:
    return (
        isinstance(conjunct, Comparison)
        and conjunct.op == "="
        and isinstance(conjunct.left, Attr)
        and isinstance(conjunct.right, Attr)
    )


class JoinStep:
    """One operand of a :class:`JoinPlan`, in join order.

    ``conjuncts`` are those decided once operand ``operand`` is joined, in
    condition order.  They are split into ``keys`` — ``(prefix position,
    local position)`` attribute equalities bridging the joined prefix and
    this operand, which the join matches on — and ``filters``.  ``probe``
    is the keys' local positions: the bucket map of :data:`Indexes` a
    stored operand is probed through.  Keys and filters name product
    positions; the rest places the step in the working batch.

    ``layout`` is the product positions the step's batch holds, in order:
    those that a later step's keys or filters, or the projection, read —
    the last step's is the projection itself.  The step gathers ``left``
    (columns of the batch so far, by index) and then ``right`` (the
    operand's local positions): ``layout`` and what its filters read.
    ``masks`` are the filters compiled against that gathered list, and
    ``carry`` picks ``layout`` out of it (``None``: all of it, in order).
    ``on`` is ``keys`` with the prefix side as a column index of the batch
    so far.
    """

    __slots__ = (
        "operand",
        "schema",
        "conjuncts",
        "filters",
        "keys",
        "masks",
        "probe",
        "layout",
        "left",
        "right",
        "on",
        "carry",
    )

    def __init__(self, operand: int, schema) -> None:
        self.operand = operand
        self.schema = schema
        self.conjuncts: List[Condition] = []
        self.filters: List[Condition] = []
        self.keys: List[Tuple[int, int]] = []
        self.masks: List[MaskFn] = []
        self.probe: Tuple[int, ...] = ()
        self.layout: Tuple[int, ...] = ()
        self.left: List[int] = []
        self.right: List[int] = []
        self.on: List[Tuple[int, int]] = []
        self.carry: Optional[List[int]] = None


class JoinPlan:
    """How the terms of one (shape, bound mask) are evaluated.

    Operands are joined in this order: the bound ones in product order,
    then repeatedly the first free operand (product order) that an
    attribute equality connects to those already joined, or the first
    free one when none is.  So every conjunct over bound operands only is
    decided in ``steps[:bound]``, before any free extent is read, and each
    free relation is probed from the rows already joined instead of being
    joined whole.  With no operand bound there is nothing to expand from,
    and the order is product order.  Each conjunct lands at the earliest
    step where every operand it reads is joined.

    ``product`` is the product in join order — its ``resolve`` gives the
    positions keys and filters read — and ``positions`` is the projection
    in it.  The working batch never holds the whole product: after each
    step it holds that step's ``layout``, worked out here back from the
    projection, so the last step's batch is the projection.
    """

    __slots__ = ("steps", "bound", "product", "positions", "__weakref__")

    def __init__(self, shape: TermShape, bound: Tuple[bool, ...]) -> None:
        schemas = shape.schemas
        resolve = shape.product.resolve
        # Product position -> the operand it belongs to.
        located: List[int] = []
        for index, schema in enumerate(schemas):
            located += [index] * schema.arity
        conjuncts = flatten_conjuncts(shape.condition)
        reads = [{located[resolve(name)] for name in c.attributes()} for c in conjuncts]
        equalities = [
            len(read) == 2 and _is_equality(conjunct)
            for conjunct, read in zip(conjuncts, reads)
        ]
        order = [index for index, is_bound in enumerate(bound) if is_bound]
        free = [index for index, is_bound in enumerate(bound) if not is_bound]
        links = list(compress(reads, equalities)) if order else []
        while len(free) > 1 and links:
            joined = set(order)
            for index in free:
                if any(index in link and link - {index} <= joined for link in links):
                    break
            else:
                index = free[0]
            order.append(index)
            free.remove(index)
        order += free

        self.bound = bound.count(True)
        if order == sorted(order):
            product = shape.product
            self.positions: Tuple[int, ...] = shape.positions
        else:
            product = ProductSchema([schemas[i] for i in order])
            self.positions = tuple(map(product.resolve, shape.projection))
        self.product = product
        self.steps = steps = [JoinStep(index, schemas[index]) for index in order]
        rank = [0] * len(order)
        starts: List[int] = []
        offset = 0
        for at, step in enumerate(steps):
            rank[step.operand] = at
            starts.append(offset)
            offset += step.schema.arity
        for conjunct, read, equality in zip(conjuncts, reads, equalities):
            at = max(map(rank.__getitem__, read)) if read else 0
            step = steps[at]
            step.conjuncts.append(conjunct)
            if equality:
                # Its later operand is this step's, so one side lies in the
                # joined prefix and one in the new operand: a join key.
                low, high = sorted(
                    (product.resolve(conjunct.left.name), product.resolve(conjunct.right.name))
                )
                step.keys.append((low, high - starts[at]))
                step.probe += (high - starts[at],)
            else:
                step.filters.append(conjunct)

        # Back from the projection: what each step's batch holds, and what
        # the step gathers — that and whatever its own filters read.
        gathered: List[List[int]] = []
        layout: List[int] = list(self.positions)
        for at in reversed(range(len(steps))):
            step = steps[at]
            step.layout = tuple(layout)
            read = set(layout)
            for conjunct in step.filters:
                read.update(map(product.resolve, conjunct.attributes()))
            gathered.append(sorted(read))
            layout = sorted(
                {p for p in read if p < starts[at]}.union(p for p, _ in step.keys)
            )
        gathered.reverse()
        held: Sequence[int] = ()
        for step, start, mine in zip(steps, starts, gathered):
            step.left = [held.index(p) for p in mine if p < start]
            step.right = [p - start for p in mine if p >= start]
            step.on = [(held.index(prefix), local) for prefix, local in step.keys]
            at_column = mine.index
            for conjunct in step.filters:
                mask = compile_mask(
                    conjunct, lambda name: at_column(product.resolve(name))
                )
                if mask is not None:
                    step.masks.append(mask)
            carry = list(map(at_column, step.layout))
            step.carry = None if carry == list(range(len(mine))) else carry
            held = step.layout


#: Plans by what they are built from, so that the equal shapes of equal
#: views (a class copied onto shards, views a recovery decoded) build one
#: between them.  A memo of a pure function — an entry is what building
#: would return — held weakly: it lives while some shape holds its plan.
_SHARED: "WeakValueDictionary[Tuple[object, ...], JoinPlan]" = WeakValueDictionary()


def join_plan(shape: TermShape, bound: Tuple[bool, ...]) -> JoinPlan:
    """The plan of ``shape`` under ``bound``, kept in ``shape.plans`` —
    built on first use, or taken from an equal shape's."""
    plan = shape.plans.get(bound)
    if plan is None:
        key = (shape.schemas, shape.projection, shape.condition, bound)
        plan = _SHARED.get(key)
        if plan is None:
            plan = _SHARED[key] = JoinPlan(shape, bound)
        shape.plans[bound] = plan
    return plan  # type: ignore[return-value]


class _Extents:
    """Where a plan reads its stored relations: ``state``, transposed into
    ``batches`` and bucketed into ``indexes`` — a caller's kept ones
    (``kept``), which may hold deleted rows at count 0, or this call's."""

    __slots__ = ("state", "batches", "indexes", "kept")

    def __init__(
        self, state: State, batches: Optional[Batches], indexes: Optional[Indexes]
    ) -> None:
        self.state = state
        self.kept = batches is not None
        if batches is None:
            batches, indexes = {}, {}
        elif indexes is None:
            indexes = {}
        self.batches: Batches = batches
        self.indexes: Indexes = indexes

    def batch(self, schema) -> ColumnBatch:
        """A stored relation's extent as a columnar batch, transposed once."""
        name = schema.base
        batch = self.batches.get(name)
        if batch is None:
            try:
                bag = self.state[name]
            except KeyError:
                raise ExpressionError(f"state has no relation {name!r}") from None
            batch = self.batches[name] = ColumnBatch.from_bag(bag, schema.arity)
        return batch

    def scan(self, step: JoinStep) -> Tuple[List[List[object]], List[int]]:
        """A first step's stored relation read whole: the columns the step
        gathers and the counts, without deleted rows, so that no filter
        compares a row the relation no longer holds."""
        batch = self.batch(step.schema)
        counts = batch.counts
        columns = list(map(batch.columns.__getitem__, step.right))
        if self.kept and 0 in counts:
            columns = [list(compress(column, counts)) for column in columns]
            counts = list(compress(counts, counts))
        return columns, counts

    def join(
        self, joined: ColumnBatch, step: JoinStep
    ) -> Tuple[List[List[object]], List[int], List[int]]:
        """Join a step's stored relation into the working batch: probe its
        bucket map on the step's keys (a product when it has none).
        Returns the columns the step gathers, the counts and, per row, the
        working-batch row it extends; deleted rows are left out."""
        extent = self.batch(step.schema)
        buckets = None
        if step.probe:
            name = step.schema.base
            kept = self.indexes.get(name)
            if kept is None:
                kept = self.indexes[name] = {}
            buckets = kept.get(step.probe)
            if buckets is None:
                buckets = kept[step.probe] = bucket_map(extent, step.probe)
        left, right = join_indices(joined, extent, step.on, buckets)
        counts = list(
            map(
                mul,
                map(joined.counts.__getitem__, left),
                map(extent.counts.__getitem__, right),
            )
        )
        if self.kept and 0 in counts:
            left = list(compress(left, counts))
            right = list(compress(right, counts))
            counts = list(compress(counts, counts))
        columns = [
            list(map(joined.columns[index].__getitem__, left)) for index in step.left
        ]
        columns += [
            list(map(extent.columns[local].__getitem__, right)) for local in step.right
        ]
        return columns, counts, left


def _matching(
    joined: ColumnBatch, on: Sequence[Tuple[int, int]], values: Iterable[Row]
) -> List[bool]:
    """Per working-batch row, whether it equals the row's bound tuple
    (``values``, parallel) on every key of ``on``."""
    columns = joined.columns
    if len(on) == 1:
        index, local = on[0]
        return list(map(eq, columns[index], map(itemgetter(local), values)))
    return list(
        map(
            eq,
            zip(*(columns[index] for index, _ in on)),
            map(itemgetter(*(local for _, local in on)), values),
        )
    )


def _step_batch(
    step: JoinStep,
    columns: List[List[object]],
    counts: List[int],
    owner: Optional[List[int]] = None,
) -> Tuple[ColumnBatch, Optional[List[int]]]:
    """A step's one batch: the gathered columns filtered by its masks (and
    ``owner`` with them), holding the step's ``layout``."""
    for mask in step.masks:
        keep = mask(columns, len(counts))
        columns = [list(compress(column, keep)) for column in columns]
        counts = list(compress(counts, keep))
        if owner is not None:
            owner = list(compress(owner, keep))
    if step.carry is not None:
        columns = list(map(columns.__getitem__, step.carry))
    return ColumnBatch(columns, counts), owner


def _evaluate_term(term: Term, plan: JoinPlan, extents: _Extents) -> SignedBag:
    """One term through ``plan``: a batch per step, holding the step's
    layout; bound operands after the first are key checks against their
    tuple, free ones probes."""
    operands = term.operands
    steps = plan.steps
    first = steps[0]
    if plan.bound:
        signed = operands[first.operand].tuple
        values = signed.values
        columns = [[values[local]] for local in first.right]
        counts = [signed.sign]
    else:
        columns, counts = extents.scan(first)
    joined = _step_batch(first, columns, counts)[0]
    for number, step in enumerate(steps[1:], 1):
        if joined.is_empty():
            return SignedBag()
        if number < plan.bound:
            signed = operands[step.operand].tuple
            values = signed.values
            columns, counts = joined.columns, joined.counts
            if step.on:
                keep = _matching(joined, step.on, repeat(values))
                columns = [list(compress(columns[index], keep)) for index in step.left]
                counts = list(compress(counts, keep))
            else:
                columns = list(map(columns.__getitem__, step.left))
            rows = len(counts)
            columns += [[values[local]] * rows for local in step.right]
            if signed.sign != 1:
                counts = [signed.sign * count for count in counts]
        else:
            columns, counts, _ = extents.join(joined, step)
        joined = _step_batch(step, columns, counts)[0]
    return joined.to_bag(term.coefficient)


def evaluate_term(
    term: Term,
    state: State,
    batches: Optional[Batches] = None,
    indexes: Optional[Indexes] = None,
) -> SignedBag:
    """Evaluate one term with columnar hash joins; equals ``term.evaluate``.

    ``batches`` and ``indexes`` are as for :func:`evaluate_query`.
    """
    plan = join_plan(term.shape, tuple(map(_is_bound, term.operands)))
    return _evaluate_term(term, plan, _Extents(state, batches, indexes))


def _evaluate_class(plan: JoinPlan, terms: Sequence[Term], extents: _Extents) -> SignedBag:
    """Sum of the terms of one (shape, bound mask) class in one plan run.

    The terms differ only in their bound tuples and coefficients, so the
    first bound operand starts the working batch with a row per term,
    its count the tuple's sign times the term's coefficient, and
    ``owner`` holds the term index of every row, going through each join
    and mask with the rows so that tuples of different terms never meet.
    A later bound operand checks the plan's keys against each row's
    owner's tuple and gathers from that tuple — never a cross product; a
    free operand is probed from the rows, and the owner vector is
    gathered by the rows they extend.  Each step holds its layout, as in
    :func:`_evaluate_term`.
    """
    steps = plan.steps
    first = steps[0]
    tuples = [term.operands[first.operand].tuple for term in terms]
    rows = list(map(attrgetter("values"), tuples))
    columns = [list(map(itemgetter(local), rows)) for local in first.right]
    counts = list(
        map(mul, map(attrgetter("sign"), tuples), map(attrgetter("coefficient"), terms))
    )
    joined, owner = _step_batch(first, columns, counts, list(range(len(terms))))
    for number, step in enumerate(steps[1:], 1):
        if joined.is_empty():
            return SignedBag()
        if number < plan.bound:
            tuples = [term.operands[step.operand].tuple for term in terms]
            mine = list(map(tuples.__getitem__, owner))
            columns, counts = joined.columns, joined.counts
            if step.on:
                keep = _matching(joined, step.on, map(attrgetter("values"), mine))
                columns = [list(compress(columns[index], keep)) for index in step.left]
                counts = list(compress(counts, keep))
                owner = list(compress(owner, keep))
                mine = list(compress(mine, keep))
            else:
                columns = list(map(columns.__getitem__, step.left))
            rows = list(map(attrgetter("values"), mine))
            columns += [list(map(itemgetter(local), rows)) for local in step.right]
            counts = list(map(mul, counts, map(attrgetter("sign"), mine)))
        else:
            columns, counts, left = extents.join(joined, step)
            owner = list(map(owner.__getitem__, left))
        joined, owner = _step_batch(step, columns, counts, owner)
    return joined.to_bag()


def evaluate_term_scalar(term: Term, state: State) -> SignedBag:
    """The row-at-a-time hash-join plan, kept as an oracle.

    The all-free mask's :class:`JoinPlan` — join order, keys and filters —
    executed one candidate row at a time with bound row predicates; bound
    operands are single-row extents.  The CI ``bench-smoke`` job
    evaluates the measured workload through both paths and fails on any
    divergence.
    """
    plan = join_plan(term.shape, (False,) * len(term.operands))
    extents: List[List[Tuple[Row, int]]] = []
    for step in plan.steps:
        operand = term.operands[step.operand]
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

    predicates: List[List[Callable[[Row], bool]]] = [
        [c.bind(plan.product) for c in step.filters] for step in plan.steps
    ]

    # Step 0: the first operand's extent, filtered.
    joined: List[Tuple[Row, int]] = []
    for row, count in extents[0]:
        if all(p(row) for p in predicates[0]):
            joined.append((row, count))

    # Steps 1..n-1: hash join (or filtered cartesian) with each operand.
    for step in range(1, len(plan.steps)):
        extent = extents[step]
        keys = plan.steps[step].keys
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

    positions = plan.positions
    result = SignedBag()
    for row, count in joined:
        result.add(tuple(map(row.__getitem__, positions)), count * term.coefficient)
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
    query: Query,
    state: State,
    batches: Optional[Batches] = None,
    indexes: Optional[Indexes] = None,
) -> SignedBag:
    """Sum of the query's terms, one plan run per class of like terms.

    Terms are grouped in one pass by (shape identity, which operands are
    bound): over n relations a compensating query of hundreds of terms
    has at most ``2^n - 1`` such classes per shape, and inside a class
    the terms differ only in the bound tuples.  A class of two or more
    terms with a bound operand is one :func:`_evaluate_class` run; a
    class of one and a term with no bound operand run the plan alone, as
    does a single-term query without any grouping.  Equals
    ``query.evaluate(state)`` (property-tested); the warehouse evaluates
    its fully bound part through this same function with an empty state.

    ``batches`` carries transposed relations between calls and
    ``indexes`` the bucket maps probed on them (see :data:`Batches` and
    :data:`Indexes`); without ``batches`` each relation the query reads is
    transposed, and each probed key bucketed, once for this call.
    """
    terms = query.terms
    if len(terms) == 1:
        return evaluate_term(terms[0], state, batches, indexes)
    extents = _Extents(state, batches, indexes)
    result = SignedBag()
    for (shape, bound), members in term_classes(terms).items():
        plan = join_plan(shape, bound)
        if len(members) > 1 and plan.bound:
            result.add_bag(_evaluate_class(plan, members, extents))
        else:
            for term in members:
                result.add_bag(_evaluate_term(term, plan, extents))
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
