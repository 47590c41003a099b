"""Regression tests: an answer the warehouse rejects changes nothing.

Each pins one case ``tests/property/test_rejected_events.py`` found, in
the smallest run that shows it:

- a pending query answered with rows that would drive the view
  negative.  The view refuses the install, and the query must still be
  pending, COLLECT (or the in-progress delta) as it was, and a catalog's
  route still there;
- SWEEP refusing a hop's answer from a source other than the hop's
  destination, and one whose rows are narrower than the hop's output,
  before the hop stops being in flight;
- every single-source family that installs answer rows (the ECA family,
  LCA, recompute, the basic baseline) refusing rows narrower than its
  query's output, which it used to add to COLLECT or the view — and so
  to every later snapshot.
"""

from __future__ import annotations

import pytest

from repro.core.registry import create_algorithm
from repro.durability import dumps_algorithm
from repro.errors import ProtocolError, ViewStateError
from repro.kernel.dispatch import dispatch_event
from repro.messaging.messages import QueryAnswer, RefreshRequest, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.updates import insert
from repro.warehouse.catalog import WarehouseCatalog

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
VIEW = View.natural_join("V", SCHEMAS, ["W", "Y"])
STATE = {"r1": SignedBag({(1, 2): 1}), "r2": SignedBag({(2, 4): 1})}


def warehouse(family):
    if family == "catalog":
        return WarehouseCatalog(
            {"V": create_algorithm("eca", VIEW, evaluate_view(VIEW, STATE))}
        )
    return create_algorithm(family, VIEW, evaluate_view(VIEW, STATE))


@pytest.mark.parametrize(
    "family",
    ["eca", "eca-local", "lca", "batch-eca", "deferred-eca", "recompute", "catalog"],
)
def test_an_answer_the_view_rejects_leaves_the_query_pending(family):
    algorithm = warehouse(family)
    dispatch_event(algorithm, "source", UpdateNotification(insert("r1", (3, 2)), 1))
    dispatch_event(algorithm, None, RefreshRequest(1))  # flushes a buffered update
    (query_id,) = algorithm.pending_query_ids()
    before = dumps_algorithm(algorithm)
    with pytest.raises(ViewStateError):
        dispatch_event(
            algorithm, "source", QueryAnswer(query_id, SignedBag({(9, 9): -5}))
        )
    assert dumps_algorithm(algorithm) == before


@pytest.fixture
def sweep():
    """A SWEEP over ``r1`` at ``s0`` and ``r2`` at ``s1``, with its hop
    into ``r2`` in flight for ``insert(r1, (3, 2))``."""
    algorithm = create_algorithm(
        "sweep", VIEW, evaluate_view(VIEW, STATE), owners={"r1": "s0", "r2": "s1"}
    )
    ((destination, _request),) = dispatch_event(
        algorithm, "s0", UpdateNotification(insert("r1", (3, 2)), 1)
    )[2]
    assert destination == "s1"
    return algorithm


def test_sweep_refuses_a_hop_answered_by_another_source(sweep):
    (query_id,) = sweep.pending_query_ids()
    before = dumps_algorithm(sweep)
    with pytest.raises(ProtocolError, match="answered by s0, sent to s1"):
        dispatch_event(sweep, "s0", QueryAnswer(query_id, SignedBag({(3, 2, 2, 4): 1})))
    assert dumps_algorithm(sweep) == before


def test_sweep_refuses_rows_narrower_than_the_hop(sweep):
    (query_id,) = sweep.pending_query_ids()
    before = dumps_algorithm(sweep)
    with pytest.raises(ProtocolError, match="the query outputs 4"):
        dispatch_event(sweep, "s1", QueryAnswer(query_id, SignedBag({(3, 2, 2): 1})))
    assert dumps_algorithm(sweep) == before


def refuses_a_narrow_answer(family):
    """A pending query answered with a row one value short of the view's
    two: a ``ProtocolError`` naming the width, and nothing changes."""
    algorithm = warehouse(family)
    dispatch_event(algorithm, "source", UpdateNotification(insert("r1", (3, 2)), 1))
    dispatch_event(algorithm, None, RefreshRequest(1))  # flushes a buffered update
    (query_id,) = algorithm.pending_query_ids()
    before = dumps_algorithm(algorithm)
    with pytest.raises(ProtocolError, match="the query outputs 2"):
        dispatch_event(algorithm, "source", QueryAnswer(query_id, SignedBag({(3,): 1})))
    assert dumps_algorithm(algorithm) == before


@pytest.mark.parametrize("family", ["eca", "eca-local", "batch-eca", "deferred-eca"])
def test_eca_family_refuses_rows_narrower_than_the_query(family):
    refuses_a_narrow_answer(family)


def test_lca_refuses_rows_narrower_than_the_query():
    refuses_a_narrow_answer("lca")


def test_recompute_refuses_rows_narrower_than_the_query():
    refuses_a_narrow_answer("recompute")


def test_basic_refuses_rows_narrower_than_the_query():
    refuses_a_narrow_answer("basic")
