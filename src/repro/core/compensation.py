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

Terms that end up fully bound vanish naturally on evaluation; callers
split them off with :meth:`Query.partition` for local evaluation.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.relational.expressions import Query, Term
from repro.relational.views import View
from repro.source.updates import Update


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
