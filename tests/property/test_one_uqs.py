"""Property: every family keeps its in-flight queries in the one UQS.

Section 5.2's unanswered query set is the structure every correctness
argument reads, and :meth:`WarehouseAlgorithm.on_answer` refuses an
answer against it.  This runs every name of ``families.FAMILIES`` under
the seeded random schedules of ``test_rejected_events.py`` and,
at every warehouse event boundary, requires of each algorithm (of each
class's algorithm, for a catalog):

- ``pending_requests()`` lists exactly the UQS ids, in UQS order;
- each request's query *is* that UQS entry, not a rebuilt copy;
- each request is routed to the source the answer gate accepts the
  answer from: :attr:`answer_source` for a single-source family,
  :func:`query_owner` of the query for a multi-source one.

A SWEEP snapshot taken mid-hop rebuilds the hop at restore, and its
re-issued request is the original's, text for text.
"""

from __future__ import annotations

import pytest

from families import FAMILIES, build
from repro.core.registry import create_algorithm
from repro.durability import dumps_algorithm, encode_text, loads_algorithm
from repro.kernel.dispatch import dispatch_event, query_owner, resolve_destination
from repro.kernel.sync import SyncKernel
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.updates import insert
from repro.warehouse.catalog import WarehouseCatalog


def algorithms(warehouse):
    if isinstance(warehouse, WarehouseCatalog):
        return [algorithm for algorithm, _ in warehouse.classes()]
    return [warehouse]


def check_one_uqs(kernel):
    for algorithm in algorithms(kernel.algorithm):
        pending = algorithm.pending_requests()
        assert [request.query_id for _, request in pending] == list(algorithm.uqs)
        for destination, request in pending:
            assert request.query is algorithm.uqs[request.query_id]
            if algorithm.multi_source:
                accepted = query_owner(request.query, algorithm.owners)
            else:
                accepted = algorithm.answer_source
            assert accepted is not None
            assert resolve_destination(destination, request, kernel.owners) == accepted


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES)
def test_pending_requests_are_the_uqs(family, seed):
    sources, warehouse, workload = build(family, seed, refresh="end")
    kernel = SyncKernel(sources, warehouse, workload)
    schedule = RandomSchedule(seed, weights={"update": 2.0})
    while not kernel.is_done():
        check_one_uqs(kernel)
        kernel.step(schedule.choose(kernel.available_actions()))
    check_one_uqs(kernel)
    assert kernel.algorithm.pending_query_ids() == []


def test_sweep_rebuilds_its_hop_at_restore_as_it_was_sent():
    """A three-relation chain, so the restored sweep still has a hop to go."""
    schemas = [
        RelationSchema("r1", ("W", "X")),
        RelationSchema("r2", ("X", "Y")),
        RelationSchema("r3", ("Y", "Z")),
    ]
    view = View.natural_join("V", schemas, ["W", "Z"])
    state = {
        "r1": SignedBag({(1, 2): 1}),
        "r2": SignedBag({(2, 4): 1, (3, 4): 1}),
        "r3": SignedBag({(4, 6): 1}),
    }
    owners = {"r1": "s0", "r2": "s1", "r3": "s2"}
    sweep = create_algorithm("sweep", view, evaluate_view(view, state), owners=owners)
    ((destination, request),) = dispatch_event(
        sweep, "s0", UpdateNotification(insert("r1", (5, 3)), 1)
    )[2]
    assert destination == "s1"
    restored = loads_algorithm(dumps_algorithm(sweep))
    assert dumps_algorithm(restored) == dumps_algorithm(sweep)
    ((again_to, again),) = restored.pending_requests()
    assert (again_to, again.query_id) == (destination, request.query_id)
    assert encode_text(again.query) == encode_text(request.query)
    # The restored hop is answered as the original would be, and the
    # sweep moves on to the same next hop.
    answer = QueryAnswer(request.query_id, SignedBag({(5, 3, 3, 4): 1}))
    hops = [dispatch_event(algorithm, "s1", answer)[2] for algorithm in (sweep, restored)]
    ((to_0, next_0),), ((to_1, next_1),) = hops
    assert to_0 == to_1 == "s2"
    assert encode_text(next_0.query) == encode_text(next_1.query)
