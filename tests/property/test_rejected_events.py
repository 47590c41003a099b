"""Property: a warehouse event the warehouse rejects changes nothing.

Sections 4-5 and Appendix B treat every warehouse event (``W_up``,
``W_ans``) as atomic: it completes, or it changes nothing.  This runs
every registry algorithm, a catalog of ECA members with sharing off and
on, and a shared catalog of ECA, ECA-Key and ECA-Local members over one
definition (one answer reaching three classes), through
:class:`SyncKernel` under a seeded random schedule
(multi-source families over a two-source chain, as ``repro runtime``
builds).  At every warehouse event boundary it sends four malformed
answers through :func:`dispatch_event`:

- an answer for an id that is not pending;
- a pending id answered from the wrong source;
- an answer whose rows would drive the view negative;
- an answer whose rows are shorter than the query's output.

Each goes first to a copy decoded from the warehouse's snapshot text.
The answer from the wrong source must be rejected: every family sends a
query to one source and takes its answer from that source only.  So
must the short answer: a row of the wrong width in COLLECT or the view
would be written into every later snapshot.  A copy that accepts either
of the others has become another run, so the live warehouse never sees
that event.  A copy that rejects it must raise a
:class:`ReproError` and keep its text byte-identical; the live warehouse
then gets the same event and must do the same.  Finally the run ends
in the state of a twin run that saw no malformed event, so a rejected
event left nothing behind that the text does not show either.
"""

from __future__ import annotations

import pytest

from repro.core.registry import ALGORITHMS, create_algorithm
from repro.durability import dumps_algorithm, loads_algorithm
from repro.errors import ReproError
from repro.kernel.dispatch import dispatch_event, resolve_destination
from repro.kernel.sync import REFRESH, SyncKernel
from repro.messaging.messages import QueryAnswer
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}

#: A value outside the workload's domain: no view row holds it.
ALIEN = 9

FAMILIES = sorted(ALGORITHMS) + ["catalog", "catalog-shared", "catalog-mixed"]


def build(family, seed):
    """``(sources, warehouse, workload)`` for one registry name or catalog."""
    workload = list(
        random_workload(SCHEMAS, 6, seed=seed, initial=INITIAL, respect_keys=True)
    )
    workload.append(REFRESH)  # what a deferred family flushes on
    if getattr(ALGORITHMS.get(family), "multi_source", False):
        sources = {
            "s0": MemorySource([SCHEMAS[0]], {"r1": INITIAL["r1"]}),
            "s1": MemorySource([SCHEMAS[1]], {"r2": INITIAL["r2"]}),
        }
        options = {"owners": {"r1": "s0", "r2": "s1"}}
    else:
        sources = {"source": MemorySource(SCHEMAS, INITIAL)}
        options = {}
    state = {}
    for source in sources.values():
        state.update(source.snapshot())
    if family in ("stored-copies", "multi-stored-copies"):
        options["initial_copies"] = state
    if family in ALGORITHMS:
        view = View.natural_join("V", SCHEMAS, ["W", "Y"])
        warehouse = create_algorithm(
            family, view, evaluate_view(view, state), **options
        )
    elif family == "catalog-mixed":
        # Three classes over one definition, whose equal queries merge.
        members = {}
        for index, name in enumerate(["eca", "eca-key", "eca-local", "eca"]):
            view = View.natural_join(f"V{index}", SCHEMAS, ["W", "Y"])
            members[view.name] = create_algorithm(
                name, view, evaluate_view(view, state)
            )
        warehouse = WarehouseCatalog(members, share_compensation=True)
    else:
        # V0 and V1 are one class; V2 keeps X, so it is a class of its own.
        projections = [["W", "Y"], ["W", "Y"], ["W", "r1.X", "Y"]]
        members = {}
        for index, projection in enumerate(projections):
            view = View.natural_join(f"V{index}", SCHEMAS, projection)
            members[view.name] = create_algorithm(
                "eca", view, evaluate_view(view, state)
            )
        warehouse = WarehouseCatalog(
            members, share_compensation=family == "catalog-shared"
        )
    return sources, warehouse, workload


def malformed(kernel):
    """``(origin, answer, must be rejected)`` for each malformed answer
    at this boundary."""
    warehouse = kernel.algorithm
    names = sorted(kernel.sources)
    pending = warehouse.pending_requests()
    stale = max(warehouse.pending_query_ids(), default=0) + 1
    events = [(names[0], QueryAnswer(stale, SignedBag()), False)]
    if not pending:
        return events
    destination, request = pending[0]
    source = resolve_destination(destination, request, kernel.owners)
    wrong = next(name for name in names + ["elsewhere"] if name != source)
    width = len(request.query.terms[0].projection)
    query_id = request.query_id
    events += [
        (wrong, QueryAnswer(query_id, SignedBag()), True),
        (source, QueryAnswer(query_id, SignedBag({(ALIEN,) * width: -5})), False),
        (source, QueryAnswer(query_id, SignedBag({(ALIEN,) * (width - 1): 1})), True),
    ]
    return events


def text(warehouse):
    return dumps_algorithm(warehouse, validate=False)


def offer(kernel, origin, answer, must_reject):
    """Send one malformed answer: to a copy, and to the live warehouse
    only if the copy rejected it."""
    live = kernel.algorithm
    before = text(live)
    copy = loads_algorithm(before)
    copy.bind_owners(kernel.owners)
    event = f"{copy!r}: {answer!r} from {origin}"
    try:
        dispatch_event(copy, origin, answer)
    except Exception as error:  # its type is what is checked below
        rejected = error
    else:
        assert not must_reject, f"{event} was accepted"
        return
    assert isinstance(rejected, ReproError), f"{event} raised an untyped {rejected!r}"
    assert text(copy) == before, f"{event} raised {rejected!r} after a change"
    with pytest.raises(type(rejected)):
        dispatch_event(live, origin, answer)
    assert text(live) == before, f"{event} changed the live warehouse"


def run(family, seed, probe):
    sources, warehouse, workload = build(family, seed)
    kernel = SyncKernel(sources, warehouse, workload)
    schedule = RandomSchedule(seed, weights={"update": 2.0})
    boundary = True
    while True:
        if probe and boundary:
            for origin, answer, must_reject in malformed(kernel):
                offer(kernel, origin, answer, must_reject)
        if kernel.is_done():
            return text(kernel.algorithm), kernel.algorithm.view_state()
        action = schedule.choose(kernel.available_actions())
        kernel.step(action)
        boundary = action.startswith("warehouse:")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", FAMILIES)
def test_a_rejected_event_changes_nothing(family, seed):
    assert run(family, seed, probe=True) == run(family, seed, probe=False)
