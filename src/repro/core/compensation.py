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

:class:`CompensationMemo` is where ECA does that split: the compensated
query of one event is a pure function of the view definition, the
update(s) and the pending queries, so structurally equal views that meet
the same inputs build it once (``docs/MULTIVIEW.md`` §2).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.relational.bag import SignedBag
from repro.relational.conditions import _COMPARATORS, Attr, Comparison, Condition, Const
from repro.relational.engine import evaluate_query, join_plan
from repro.relational.expressions import Query, Term, TermShape
from repro.relational.views import View
from repro.source.updates import Update

#: One event's compensated query as ECA consumes it: the whole query, the
#: value of its fully bound terms (``None`` when it has none) and the
#: terms to ship.  All three are shared between the views of a class and
#: never edited.
Compensated = Tuple[Query, Optional[SignedBag], Query]

#: A conjunct compiled against one bound mask: a term's operands -> its
#: truth value on their bound tuples.
Check = Callable[[Tuple[Any, ...]], object]

_is_bound = attrgetter("is_bound")


class CompensationMemo:
    """The last compensated query built, keyed by what it was built from.

    One entry: the views of a class meet an event one after another, so
    the first builds and the rest find what it built.  The key is compared
    by value — the update(s), then the pending queries in UQS order —
    and Python's identity short-cut makes that a pointer walk when the
    views hold the same ``Query`` objects, which they do from the first
    hit on.  Views whose pending queries differ miss and build for
    themselves; that is all the protocol a class needs.
    """

    __slots__ = ("_updates", "_pending", "_built")

    def __init__(self) -> None:
        # No update and no batch equals None, so the first lookup misses.
        self._updates: object = None
        self._pending: object = None
        self._built: Compensated = (Query(), None, Query())

    def compensated(
        self,
        build: Callable[[View, Any, Any], Query],
        view: View,
        updates: object,
        pending: object,
    ) -> Compensated:
        """``build(view, updates, pending)`` split for dispatch — the held
        one when ``updates`` and ``pending`` equal what it was built from.

        ``view`` is not compared: the memo belongs to views of one
        definition.  An update never equals a batch and a pending query
        never equals a ``(query, seen)`` pair, so the two builders' keys
        cannot meet.
        """
        if updates == self._updates and pending == self._pending:
            return self._built
        query = build(view, updates, pending)
        local, remote = self.split(query)
        delta = None if local.is_empty() else evaluate_query(local, {})
        self._updates, self._pending = updates, pending
        self._built = built = (query, delta, remote)
        return built

    @staticmethod
    def split(query: Query) -> Tuple[Query, Query]:
        """How a built query is split (:func:`split`); a method so that a
        test can hold the memo against another split."""
        return split(query)


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
    # Product position -> (operand index, column in the operand's tuple).
    located = [
        (index, column)
        for index, schema in enumerate(shape.schemas)
        for column in range(schema.arity)
    ]
    plan = join_plan(shape, bound)
    return tuple(
        _compile(conjunct, shape, located)
        for step in plan.steps[: plan.bound]
        for conjunct in step.conjuncts
    )


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
