"""Property: a warehouse event the warehouse rejects changes nothing.

Sections 4-5 and Appendix B treat every warehouse event (``W_up``,
``W_ans``) as atomic: it completes, or it changes nothing.  This runs
every name of ``families.FAMILIES`` — each registry algorithm (the
multi-source ones over two sources) and each catalog composition, with
sharing off and on, one of them three classes over one definition whose
equal queries merge — through :class:`SyncKernel` under a seeded random
schedule.  At every warehouse event boundary it sends four malformed
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

from families import FAMILIES, build
from repro.durability import dumps_algorithm, loads_algorithm
from repro.errors import ReproError
from repro.kernel.dispatch import dispatch_event, resolve_destination
from repro.kernel.sync import SyncKernel
from repro.messaging.messages import QueryAnswer
from repro.relational.bag import SignedBag
from repro.simulation.schedules import RandomSchedule

#: A value outside the workload's domain: no view row holds it.
ALIEN = 9


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
    # A REFRESH last: what a deferred family flushes on.
    sources, warehouse, workload = build(family, seed, refresh="end")
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
