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
term already binds.  :func:`candidate_terms` does not build those: each
pending query indexes its terms by that bound value, per updated
relation (:func:`probe_key` says where to read it), and an update looks
its own value up instead of substituting into every term.
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


#: A pending query's terms as updates of one relation meet them: the
#: indices of the terms every update must substitute, and per column of
#: the update's tuple, bound value -> indices of the terms whose first
#: check is that column equal to that value.  Terms in which the relation
#: vanishes or does not occur are in neither.
ProbeTable = Tuple[List[int], List[Tuple[int, Dict[object, List[int]]]]]


def candidate_terms(
    pending: Sequence[Query], relation: str, values: Tuple[Any, ...]
) -> List[Term]:
    """The terms of ``pending`` whose ``Q_j<U>`` for an update of
    ``relation`` to ``values`` the split could keep, unsubstituted, in UQS
    order then term order.

    A term is left out only when its substituted form would fail its
    first bound check, ``values[column] == bound value``: a dict probe
    finds a key exactly when ``==`` holds (hash agrees with ``==`` on
    every value a schema accepts, and none is unequal to itself), and
    :func:`split` stops at a term's first false check.  So
    ``Query(candidate_terms(...)).substitute(relation, tuple, -1)`` is
    ``-sum_j Q_j<U>`` less exactly terms the split would drop first thing.
    """
    out: List[Term] = []
    for query in pending:
        try:
            always, buckets = query.probes[relation]  # type: ignore[index]
        except (KeyError, TypeError):  # no table yet, or no tables at all
            always, buckets = _probe_table(query, relation)
        if not buckets:
            indices: Sequence[int] = always
        else:
            found = list(always)
            for column, bucket in buckets:
                try:
                    found += bucket.get(values[column], ())
                except TypeError:  # an unhashable value: every term is one
                    found += chain.from_iterable(bucket.values())
            indices = sorted(found)
        if indices:
            out += map(query.terms.__getitem__, indices)
    return out


def _probe_table(query: Query, relation: str) -> ProbeTable:
    """Build ``query``'s table for ``relation`` and keep it there."""
    always: List[int] = []
    buckets: Dict[int, Dict[object, List[int]]] = {}
    for at, term in enumerate(query.terms):
        shape = term.shape
        occurrences = shape.occurrences.get(relation)
        if not occurrences:
            continue
        operands = term.operands
        if len(occurrences) == 1:
            index = occurrences[0]
            if operands[index].is_bound:
                continue  # Q<U> has no such term
            key = probe_key(shape, tuple(map(_is_bound, operands)), index)
            if key is not None:
                column, other, position = key
                value = operands[other].tuple.values[position]
                try:
                    buckets.setdefault(column, {}).setdefault(value, []).append(at)
                    continue
                except TypeError:  # an unhashable bound value
                    pass
        always.append(at)
    if query.probes is None:
        query.probes = {}
    table: ProbeTable = (always, list(buckets.items()))
    query.probes[relation] = table
    return table


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
