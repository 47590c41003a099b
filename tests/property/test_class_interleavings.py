"""Every interleaving of a small run: a class of two views is one
maintainer, and nothing shows.

With sharing on, a :class:`~repro.warehouse.catalog.WarehouseCatalog`
drives one algorithm for the members of a class.  The oracle is the
per-member catalog it replaced (``reference_catalog.ReferenceCatalog``):
every member its own private algorithm, every request signed, equal
requests of one event merged by the planner.

For each catalog-capable registry family and ``batch_k`` in {1, 2}, the
catalog holds V0 and V1 — one class — and, between them in catalog
order, V2: the same definition, its view holding one row more, so a
class of its own whose requests the planner still merges with the
class's.  Every :class:`~repro.kernel.sync.SyncKernel` schedule of a
three-update workload (an insert on each relation, the two joining
each other as in Example 2, then a delete of a keyed ``r1`` row;
deferred families add the refresh they flush on) is enumerated
depth-first, each branch replayed from a fresh pair of kernels.  After
every step the catalog under test and the oracle must have routed the
same wire bytes, hold the same planner routes, ids and counts, and
leave every member with the same view and pending state (UQS, COLLECT
and the rest).  At the end of each schedule, V0 and V1 are checked on
their own timelines (``project_view``): no schedule falls below the
level ``docs/ALGORITHMS.md`` claims for the family, and some schedule
reaches it exactly.
"""

from __future__ import annotations

import pytest

from reference_catalog import ReferenceCatalog
from repro.consistency import check_trace
from repro.core.registry import create_algorithm
from repro.kernel.sync import REFRESH, SyncKernel
from repro.messaging.wire import create_codec
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.trace import project_view
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
WORKLOAD = [insert("r1", (4, 2)), insert("r2", (2, 7)), delete("r1", (2, 3))]
FRAME = create_codec("frame")

#: The weakest level each family claims, per ``docs/ALGORITHMS.md``.
CLAIMED = {
    "basic": "incorrect",
    "batch-eca": "strongly consistent",
    "deferred-eca": "strongly consistent",
    "eca": "strongly consistent",
    "eca-key": "strongly consistent",
    "eca-local": "strongly consistent",
    "lca": "complete",
    "recompute": "strongly consistent",
    "stored-copies": "complete",
}
#: Where batching lowers the claim: stored copies installs a coalesced
#: run in one event, so the state between its updates is never shown.
BATCHED = {"stored-copies": "strongly consistent"}
LEVELS = [
    "incorrect",
    "convergent",
    "weakly consistent",
    "consistent",
    "strongly consistent",
    "complete",
]
#: The two members of the class; V2, between them, is a class of its own.
CLASS = ("V0", "V1")
VIEWS = {
    name: View.natural_join(name, SCHEMAS, ["W", "Y"]) for name in ("V0", "V2", "V1")
}
STATE = MemorySource(SCHEMAS, INITIAL).snapshot()
CONTENTS = {name: evaluate_view(view, STATE) for name, view in VIEWS.items()}
CONTENTS["V2"].add((9, 9), 1)


class Wire:
    """A recorder that keeps the frame of every request the kernel ships."""

    def __init__(self):
        self.frames = []

    def record_request(self, request):
        self.frames.append(FRAME.encode(request))

    def record_answer(self, answer):
        pass

    def record_evaluation(self, query, source):
        pass


def kernel(family, batch_k, oracle):
    options = {"initial_copies": STATE} if family == "stored-copies" else {}
    members = {
        name: create_algorithm(family, view, CONTENTS[name].copy(), **options)
        for name, view in VIEWS.items()
    }
    catalog = (ReferenceCatalog if oracle else WarehouseCatalog)(
        members, share_compensation=True
    )
    workload = list(WORKLOAD)
    if family in ("batch-eca", "deferred-eca"):
        workload.append(REFRESH)
    source = MemorySource(SCHEMAS, INITIAL)
    return SyncKernel({"source": source}, catalog, workload, Wire(), batch_k=batch_k)


def observe(run):
    catalog = run.algorithm
    members = {
        name: (algorithm.view_state(), algorithm.pending_state())
        for name, algorithm in catalog.algorithms.items()
    }
    planner = catalog.pending_state()
    return run.recorder.frames, planner, members


def assert_same(ours, theirs, schedule):
    assert observe(ours) == observe(theirs), schedule


def level(run, name):
    return check_trace(VIEWS[name], project_view(run.trace, name)).level()


def explore(family, batch_k):
    """Every schedule, depth-first: ``{member: set of levels reached}``
    and the number of schedules."""
    reached = {name: set() for name in CLASS}
    schedules = 0
    branches = [()]
    while branches:
        prefix = branches.pop()
        ours, theirs = kernel(family, batch_k, False), kernel(family, batch_k, True)
        assert_same(ours, theirs, prefix)
        for action in prefix:
            ours.step(action)
            theirs.step(action)
        while True:
            actions = ours.available_actions()
            assert actions == theirs.available_actions(), prefix
            if not actions:
                break
            branches.extend(prefix + (action,) for action in reversed(actions[1:]))
            prefix += (actions[0],)
            ours.step(actions[0])
            theirs.step(actions[0])
            assert_same(ours, theirs, prefix)
        assert ours.algorithm.is_quiescent(), prefix
        schedules += 1
        for name in CLASS:
            reached[name].add(level(ours, name))
    return reached, schedules


@pytest.mark.parametrize("batch_k", [1, 2])
@pytest.mark.parametrize("family", sorted(CLAIMED))
def test_a_two_member_class_is_the_per_member_catalog_under_every_interleaving(
    family, batch_k
):
    reached, schedules = explore(family, batch_k)
    assert schedules > 1
    claims = BATCHED if batch_k > 1 else {}
    claimed = LEVELS.index(claims.get(family, CLAIMED[family]))
    for name, levels in reached.items():
        weakest = min(LEVELS.index(found) for found in levels)
        assert weakest == claimed, (name, sorted(levels))
