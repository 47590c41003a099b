"""The scan-all builder of ECA's compensated query, kept as the oracle.

``V<U> - sum_j Q_j<U>`` used to be built by substituting ``U`` into every
term of every pending query, leaving :func:`~repro.core.compensation.split`
to drop the terms whose bound tuples fail a check.
:func:`compensate_by_scan` is that builder.  The one ECA runs
(``repro.core.eca._compensate_update``) probes its UQS's
:class:`~repro.core.compensation.ProbeIndex` instead and never builds
the terms :func:`probe_drops` names — terms the split drops at their
first check — so :func:`built_by_probe` is what it must build, and
split, both give the same local and remote parts.  Both builders take
``pending``, a probe index; the scan reads only its ``uqs``.
:func:`indexed` makes one over a list of queries.
:func:`scanning` makes ECA build with the scan instead (and, when asked,
split by plain ``query.partition()``).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core import eca
from repro.core.compensation import ProbeIndex, split
from repro.relational.conditions import Attr, Comparison
from repro.relational.engine import evaluate_query, join_plan
from repro.relational.expressions import Query


def indexed(queries):
    """A probe index over ``queries``, pending in list order."""
    return ProbeIndex(dict(enumerate(queries, start=1)))


def compensate_by_scan(view, update, pending):
    """``V<U>``'s terms, then every pending query's ``-Q_j<U>`` whole."""
    signed = update.signed_tuple()
    terms = list(view.substitute(update.relation, signed).terms)
    for query in pending.uqs.values():
        terms.extend(query.substitute(update.relation, signed, -1).terms)
    return Query(terms)


def probed_equality(term, relation):
    """Written out: when ``term``, one of ``-Q_j<U>``'s for an update of
    ``relation``, reads that relation once and the first conjunct the
    engine decides on its bound operands is an attribute equality between
    that operand and another one, the two values it compares; else
    ``None``."""
    operands = term.operands
    reading = [i for i, op in enumerate(operands) if op.source_relation == relation]
    if len(reading) != 1:
        return None
    plan = join_plan(term.shape, tuple(op.is_bound for op in operands))
    decided = [c for step in plan.steps[: plan.bound] for c in step.conjuncts]
    if not decided:
        return None
    first = decided[0]
    if not (
        isinstance(first, Comparison)
        and first.op == "="
        and isinstance(first.left, Attr)
        and isinstance(first.right, Attr)
    ):
        return None
    (i, left), (j, right) = (
        _operand_value(term, side.name) for side in (first.left, first.right)
    )
    if reading[0] not in (i, j) or i == j:
        return None
    return left, right


def probe_drops(term, relation):
    """Whether the probe leaves ``term`` unbuilt: its
    :func:`probed_equality` is false."""
    compared = probed_equality(term, relation)
    return compared is not None and not compared[0] == compared[1]


def _operand_value(term, name):
    """(operand index, value) of attribute ``name`` on ``term``'s tuples."""
    position = term.product.resolve(name)
    for index, op in enumerate(term.operands):
        if position < op.schema.arity:
            return index, op.tuple.values[position]
        position -= op.schema.arity
    raise AssertionError(name)


def built_by_probe(view, update, pending):
    """The scan's query less the compensation terms :func:`probe_drops`
    names, in order."""
    scanned = compensate_by_scan(view, update, pending)
    head = view.substitute(update.relation, update.signed_tuple()).term_count()
    return Query(
        list(scanned.terms[:head])
        + [t for t in scanned.terms[head:] if not probe_drops(t, update.relation)]
    )


def built_and_split(build, view, update, pending):
    """``build(view, update, pending)`` and what ECA's dispatch makes of
    it: ``(query, value of its local part or None, remote part)``."""
    query = build(view, update, pending)
    local, remote = split(query)
    return query, None if local.is_empty() else evaluate_query(local, {}), remote


@contextmanager
def scanning(split=split):
    """While open, ECA builds an update's compensated query with
    :func:`compensate_by_scan` and splits every built query with
    ``split``."""
    with mock.patch.object(eca, "_compensate_update", compensate_by_scan), mock.patch.object(
        eca, "split", split
    ):
        yield
