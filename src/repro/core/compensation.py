"""Compensation algebra shared by the ECA family.

Lemma B.2 — ``Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]`` — composes over a
sequence of updates into an alternating sum (the inclusion-exclusion over
prefixes).  :func:`backdate` materializes that sum: a query expression
that, evaluated on the state *after* ``updates`` have executed, yields the
value the original query had *before* them.

Three consumers:

- LCA backdates a queued update's query against updates already seen;
- BatchECA backdates each batched update's delta against the rest of the
  batch, and compensates pending queries against the whole batch;
- DeferredECA is BatchECA with a read-triggered flush.

A built query is split three ways before anything is shipped (Appendix
D, generalised): terms whose bound tuples already fail a conjunct that
reads bound operands only are dropped — they are empty on every source
state, and substitution only binds more operands, so everything derived
from them is empty too; of the rest, fully bound terms are evaluated at
the warehouse and the others are shipped.  :func:`split` does it.

Most of ``-Q_j<U>``'s terms are ones the split would drop at their first
check, an attribute equality between the update's tuple and a tuple the
term already binds.  A :class:`ProbeIndex` does not build those: it
indexes the whole UQS's terms by that bound value, per updated relation
(:func:`probe_key` says where to read it), and an update looks its own
value up instead of substituting into every term, or visiting every
pending query.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.relational.conditions import _COMPARATORS, Attr, Comparison, Condition, Const
from repro.relational.engine import join_plan
from repro.relational.expressions import Query, Term, TermShape
from repro.relational.views import View
from repro.source.updates import Update

#: A conjunct compiled against one bound mask: a term's operands -> its
#: truth value on their bound tuples.
Check = Callable[[Tuple[Any, ...]], object]

_is_bound = attrgetter("is_bound")


def split(query: Query) -> Tuple[Query, Query]:
    """``query.partition()`` without the terms their bound tuples falsify.

    One pass in query order: a term is dropped when one of its shape's
    :func:`bound_checks` for its bound mask is definitely false; of the
    rest, fully bound terms go to the first query (evaluated at the
    warehouse) and the others to the second (shipped).  A comparison that
    raises ``TypeError`` decides nothing: the term is kept, so the error
    surfaces where the term is evaluated, as it would without the check.
    """
    local: List[Term] = []
    remote: List[Term] = []
    for term in query.terms:
        operands = term.operands
        bound = tuple(map(_is_bound, operands))
        shape = term.shape
        checks = shape.bound_checks.get(bound)
        if checks is None:
            checks = shape.bound_checks[bound] = bound_checks(shape, bound)
        if checks and _falsified(checks, operands):
            continue
        (remote if False in bound else local).append(term)
    return Query(local), Query(remote)


def _falsified(checks: Tuple[Check, ...], operands: Tuple[Any, ...]) -> bool:
    for check in checks:
        try:
            if not check(operands):
                return True
        except TypeError:
            # Unorderable (``None > 3``, ``"a" < 1``): undecided.  Keep
            # the term and leave the error to its evaluation.
            return False
    return False


def bound_checks(shape: TermShape, bound: Tuple[bool, ...]) -> Tuple[Check, ...]:
    """The conjuncts of ``shape.condition`` that read bound operands only
    under ``bound``, compiled, in the order the engine decides them.

    The engine's plan for ``bound`` joins the bound operands first, so
    these are exactly the conjuncts of its first ``plan.bound`` steps,
    listed step by step, then in condition order — all decided before any
    free extent is read.  A term dropped for a false check is therefore
    one whose evaluation empties at that check, on bound tuples alone,
    and returns the empty bag before any comparison that could raise
    meets a row the checks did not.
    """
    located = _located(shape)
    plan = join_plan(shape, bound)
    return tuple(
        _compile(conjunct, shape, located)
        for step in plan.steps[: plan.bound]
        for conjunct in step.conjuncts
    )


def _located(shape: TermShape) -> List[Tuple[int, int]]:
    """Product position -> (operand index, column in the operand's tuple)."""
    return [
        (index, column)
        for index, schema in enumerate(shape.schemas)
        for column in range(schema.arity)
    ]


def _compile(
    conjunct: Condition, shape: TermShape, located: List[Tuple[int, int]]
) -> Check:
    """One check: a comparison of an attribute reads its operands' tuples
    in place; any other conjunct (``Or``, ``Not``, two constants) is the
    condition's own row predicate over the product, the free operands'
    columns left blank (it reads none of them)."""
    resolve = shape.product.resolve
    if isinstance(conjunct, Comparison):
        compare = _COMPARATORS[conjunct.op]
        left, right = conjunct.left, conjunct.right
        if isinstance(left, Attr) and isinstance(right, Attr):
            i, a = located[resolve(left.name)]
            j, b = located[resolve(right.name)]
            return lambda operands: compare(
                operands[i].tuple.values[a], operands[j].tuple.values[b]
            )
        if isinstance(left, Attr) and isinstance(right, Const):
            i, a = located[resolve(left.name)]
            value = right.value
            return lambda operands: compare(operands[i].tuple.values[a], value)
        if isinstance(left, Const) and isinstance(right, Attr):
            j, b = located[resolve(right.name)]
            value = left.value
            return lambda operands: compare(value, operands[j].tuple.values[b])
    predicate = conjunct.bind(shape.product)
    blanks = [(None,) * schema.arity for schema in shape.schemas]
    return lambda operands: predicate(
        tuple(
            chain.from_iterable(
                op.tuple.values if op.is_bound else blank
                for op, blank in zip(operands, blanks)
            )
        )
    )


class ProbeIndex:
    """An algorithm's whole UQS, indexed by what an update must equal for
    each pending term's ``Q_j<U>`` to survive its first check.

    ``uqs`` is the algorithm's own id -> query map, held, not copied: ids
    ascend in it (:meth:`~repro.core.protocol.WarehouseAlgorithm.uqs_queries`)
    and none is issued twice, not even after the UQS empties — an id at or
    below ``filed`` is taken as filed already.
    Per updated relation, a :class:`_Table` holds the pending terms under
    the :func:`probe_key` rule.  Filing is lazy: :meth:`hits` walks the
    queries issued since ``filed``, the newest query id filed, once
    each, and files every term in the table of every relation it holds,
    so an empty UQS builds nothing and a query is walked once per index,
    however many relations its terms hold.  Retiring is eager:
    :meth:`retire` removes an answered query's entries and every bucket
    they leave empty.  A recovered algorithm starts a new index, which
    files the recovered UQS at its first update.
    """

    def __init__(self, uqs: Dict[int, Query]) -> None:
        self.uqs = uqs
        self.tables: Dict[str, _Table] = {}
        self.filed = 0

    def hits(
        self, relation: str, values: Tuple[Any, ...]
    ) -> List[Tuple[int, List[int]]]:
        """``(query id, term indices)`` of every pending query that has a
        candidate for an update of ``relation`` to ``values``, ids and
        indices ascending — the UQS order, then term order.

        A term is left out only when its substituted form would fail its
        first bound check, ``values[column] == bound value``: a dict probe
        finds a key exactly when ``==`` holds (hash agrees with ``==`` on
        every value a schema accepts, and none is unequal to itself), and
        :func:`split` stops at a term's first false check.  A pending query
        with no candidate is never visited.
        """
        uqs = self.uqs
        if not uqs:
            return []
        newest, filed = next(reversed(uqs)), self.filed
        if newest > filed:
            fresh: List[int] = []
            for query_id in reversed(uqs):
                if query_id <= filed:
                    break
                fresh.append(query_id)
            for query_id in reversed(fresh):
                self._file(query_id, uqs[query_id].terms)
            self.filed = newest
        table = self.tables.get(relation)
        if table is None:
            return []
        found: List[Dict[int, List[int]]] = []
        if table.always:
            found.append(table.always)
        for column, by_value in table.columns.items():
            try:
                bucket = by_value.get(values[column])
            except TypeError:  # an unhashable value: every term is one
                found += by_value.values()
                continue
            if bucket is not None:
                found.append(bucket)
        if len(found) < 2:
            # Ids enter each map ascending (filed oldest first, each one
            # newer than every id filed before), and removals keep order.
            return list(found[0].items()) if found else []
        merged: Dict[int, List[int]] = {}
        for bucket in found:
            for query_id, indices in bucket.items():
                have = merged.get(query_id)
                merged[query_id] = indices if have is None else sorted(have + indices)
        return sorted(merged.items())

    def _file(self, query_id: int, terms: Sequence[Term]) -> None:
        """File a pending query's ``terms``: each one, for every relation
        it holds, in that relation's table — a lone unbound occurrence
        with a :func:`probe_key` in its bucket, anything else in
        ``always``.  A bound lone occurrence files nothing: ``Q<U>`` has
        no such term."""
        tables = self.tables
        for at, term in enumerate(terms):
            shape = term.shape
            operands = term.operands
            bound = tuple(map(_is_bound, operands))
            for relation, occurrences in shape.occurrences.items():
                key = None
                if len(occurrences) == 1:
                    index = occurrences[0]
                    if bound[index]:
                        continue
                    key = probe_key(shape, bound, index)
                table = tables.get(relation)
                if table is None:
                    table = tables[relation] = _Table()
                if key is not None:
                    column, other, position = key
                    value = operands[other].tuple.values[position]
                    columns = table.columns
                    by_value = columns.get(column)
                    if by_value is None:
                        by_value = columns[column] = {}
                    try:
                        bucket = by_value.get(value)
                    except TypeError:  # an unhashable bound value
                        if not by_value:
                            del columns[column]
                    else:
                        if bucket is None:
                            bucket = by_value[value] = {}
                        indices = bucket.get(query_id)
                        if indices is None:
                            bucket[query_id] = [at]
                            placed = table.placed.setdefault(query_id, [])
                            placed.append((column, value))
                        else:
                            indices.append(at)
                        continue
                indices = table.always.get(query_id)
                if indices is None:
                    table.always[query_id] = [at]
                else:
                    indices.append(at)

    def candidates(self, relation: str, values: Tuple[Any, ...]) -> List[Term]:
        """The terms :meth:`hits` names, unsubstituted, in its order:
        ``Query(candidates(...)).substitute(relation, tuple, -1)`` is
        ``-sum_j Q_j<U>`` less exactly terms the split would drop first
        thing."""
        uqs = self.uqs
        out: List[Term] = []
        for query_id, indices in self.hits(relation, values):
            out += map(uqs[query_id].terms.__getitem__, indices)
        return out

    def retire(self, query_id: int) -> None:
        """Forget an answered query: its entries, and the buckets and
        columns they leave empty."""
        if query_id > self.filed:
            return
        for table in self.tables.values():
            table.always.pop(query_id, None)
            columns = table.columns
            for column, value in table.placed.pop(query_id, ()):
                by_value = columns[column]
                bucket = by_value[value]
                del bucket[query_id]
                if not bucket:
                    del by_value[value]
                    if not by_value:
                        del columns[column]


class _Table:
    """The UQS's terms as updates of one relation meet them.

    ``always``: query id -> indices of the terms every update must
    substitute.  ``columns``: per column of the update's tuple, bound
    value -> (query id -> indices of the terms whose first check is that
    column equal to that value).  ``placed``: query id -> the (column,
    value) buckets it is in.  Terms in which the relation's one
    occurrence is bound, or the relation does not occur, are nowhere.
    """

    __slots__ = ("always", "columns", "placed")

    def __init__(self) -> None:
        self.always: Dict[int, List[int]] = {}
        self.columns: Dict[int, Dict[object, Dict[int, List[int]]]] = {}
        self.placed: Dict[int, List[Tuple[int, object]]] = {}


def probe_key(
    shape: TermShape, bound: Tuple[bool, ...], index: int
) -> Optional[Tuple[int, int, int]]:
    """Where an update binding operand ``index`` of a ``shape`` term with
    mask ``bound`` meets its first bound check, kept in
    ``shape.probe_keys``.

    ``(column, other, position)`` when that check (the first of
    :func:`bound_checks` under the mask with ``index`` bound) is an
    attribute equality between column ``column`` of the update's tuple
    and column ``position`` of bound operand ``other``; ``None`` for any
    other first check, or none, which a probe cannot decide.
    """
    keys = shape.probe_keys
    try:
        return keys[bound, index]
    except KeyError:
        pass
    plan = join_plan(shape, bound[:index] + (True,) + bound[index + 1 :])
    first = next(
        chain.from_iterable(step.conjuncts for step in plan.steps[: plan.bound]), None
    )
    key = None
    if (
        isinstance(first, Comparison)
        and first.op == "="
        and isinstance(first.left, Attr)
        and isinstance(first.right, Attr)
    ):
        located = _located(shape)
        resolve = shape.product.resolve
        i, a = located[resolve(first.left.name)]
        j, b = located[resolve(first.right.name)]
        if j == index:
            (i, a), (j, b) = (j, b), (i, a)
        if i == index and j != index:
            key = (a, j, b)
    keys[bound, index] = key
    return key


def backdate(query: Query, updates: Sequence[Update]) -> Query:
    """The query reading as of *before* ``updates`` (in source order).

    ``D(Q, []) = Q`` and ``D(Q, [U, rest...]) = D(Q, rest) - D(Q<U>, rest)``;
    ``D`` is linear, so the subtrahend is ``D(-Q<U>, rest)`` and each term
    is made once, with its final sign.
    The recursion collapses quickly in practice: substituting a second
    update on the same relation annihilates a term, and a view over n
    relations vanishes entirely after n substitutions.
    """
    if query.is_empty() or not updates:
        return query
    head, rest = updates[0], updates[1:]
    compensation = query.substitute(head.relation, head.signed_tuple(), -1)
    return backdate(query, rest) + backdate(compensation, rest)


def batch_delta_query(view: View, updates: Sequence[Update]) -> Query:
    """One query whose post-batch evaluation is the whole batch's delta.

    ``sum_j D(V<U_j>, updates[j+1:])`` — each update's incremental query,
    backdated against the updates that follow it in the batch, so that
    evaluating every term on the post-batch state telescopes
    ``V[ss_pre] -> V[ss_post]``.

    Updates on relations the view does not involve are skipped entirely
    (they cannot affect the view *or* the backdating of updates that do).
    """
    relevant: List[Update] = [u for u in updates if view.involves(u.relation)]
    terms: List[Term] = []
    for index, update in enumerate(relevant):
        base = view.substitute(update.relation, update.signed_tuple())
        terms.extend(backdate(base, relevant[index + 1 :]).terms)
    return Query(terms)


def staged_compensation(
    query: Query, batch: Sequence[Update], seen_count: int
) -> Query:
    """Correction for a query that saw the first ``seen_count`` of ``batch``.

    The query's answer was (or will be) evaluated on the state after
    ``batch[:seen_count]``; the correction, *itself evaluated after the
    whole batch*, is

        - sum over i < seen_count of D(Q<batch[i]>, batch[i+1:])

    Each contaminating update's substituted query is backdated against the
    **entire rest of the batch** — including updates the query never saw —
    because the correction's own evaluation happens post-batch.  With
    ``seen_count == len(batch)`` the sum equals ``D(Q, batch) - Q``, the
    offset for a query that will be evaluated after the whole batch —
    without the ``+Q``/``-Q`` pair that difference carries when written
    out (queries never cancel terms, so the pair would be shipped).
    """
    terms: List[Term] = []
    for index in range(min(seen_count, len(batch))):
        update = batch[index]
        if not _touches(query, update):
            continue
        compensation = query.substitute(update.relation, update.signed_tuple(), -1)
        remaining = [u for u in batch[index + 1 :] if _touches(compensation, u)]
        terms.extend(backdate(compensation, remaining).terms)
    return Query(terms)


def _touches(query: Query, update: Update) -> bool:
    return any(
        update.relation in term.source_relation_names for term in query.terms
    )
