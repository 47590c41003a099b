"""Property tests: a class of views is one maintainer, and nothing shows.

With sharing on, a :class:`~repro.warehouse.catalog.WarehouseCatalog`
drives one algorithm for the members of a class (one algorithm type,
equal definitions, options and state) and delivers an update only to
the classes whose views react to its relation.  The oracle is the
per-member catalog it replaced (``reference_catalog.ReferenceCatalog``):
every member its own private algorithm, every request signed, equal
requests of one event merged by the planner.  Three things can go
wrong, and each has a property here:

(a) *sharing shows* — a member of a class behaves unlike its private
    algorithm.  A drawn catalog and the oracle are driven over one drawn
    script of updates, batches, answers, refreshes and codec round
    trips.  After every event the routed requests (as wire bytes), the
    planner's routes and counts, every member's UQS, COLLECT and view
    contents, and the serving keys the event wrote must be equal.
(b) *divergence breaks it* — with sharing off every member is a class
    of one, and the answers of equally defined views arrive in
    different events, so their pending lists part ways.  Results still
    equal the oracle's.
(c) *the interest map drifts from ``involves``* — for drawn views
    (aliases, self-joins, unions) a member is delivered an update exactly
    when its view involves the relation.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_catalog import ReferenceCatalog
from repro.core.eca import ECA
from repro.core.registry import create_algorithm
from repro.durability.codec import dumps_algorithm, loads_algorithm
from repro.messaging.messages import QueryAnswer, UpdateBatch, UpdateNotification
from repro.messaging.wire import create_codec
from repro.relational.conditions import Attr, Comparison, Const
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.serving.keys import written_keys
from repro.source.memory import MemorySource
from repro.source.updates import insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
SCHEMAS = [R1, R2]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
FRAME = create_codec("frame")

ECA_FAMILY = ["eca", "eca-local", "batch-eca", "deferred-eca"]

#: Views that differ from the class's definition in exactly one respect.
VARIANTS = {
    "projection": lambda: View.natural_join("projection", SCHEMAS, ["Y", "W"]),
    "condition": lambda: View.natural_join(
        "condition", SCHEMAS, ["W", "Y"], Comparison(Attr("W"), ">", Const(1))
    ),
    "alias": lambda: View.natural_join(
        "alias", [R1.aliased("a"), R2], ["W", "Y"]
    ),
}


def build_catalog(equal, variants, share, oracle=False):
    """``equal`` names the algorithm of each structurally equal view (in
    catalog order, the variants and an LCA view over the same definition
    between and after them); ``oracle`` builds the per-member catalog."""
    state = MemorySource(SCHEMAS, INITIAL).snapshot()
    views = [
        (name, View.natural_join(f"E{index}", SCHEMAS, ["W", "Y"]))
        for index, name in enumerate(equal)
    ]
    views[1:1] = [(name, VARIANTS[key]()) for key, name in variants]
    views.append(("lca", View.natural_join("other", SCHEMAS, ["W", "Y"])))
    members = {
        view.name: create_algorithm(name, view, evaluate_view(view, state))
        for name, view in views
    }
    catalog = ReferenceCatalog if oracle else WarehouseCatalog
    return catalog(members, share_compensation=share)


#: The journal reader ``observe`` takes each event's written keys with.
WITNESS = "witness"


def observe(catalog, routed):
    members = {}
    for name, algorithm in catalog.algorithms.items():
        collect = getattr(algorithm, "collect", None)
        members[name] = (
            list(algorithm.uqs.items()),
            None if collect is None else collect.copy(),
            algorithm.mv.as_bag(),
        )
    written = written_keys(catalog, WITNESS)
    wire = [(destination, FRAME.encode(request)) for destination, request in routed]
    return wire, catalog.pending_state(), members, written


def drive(catalog, workload, script):
    """Run ``script`` over ``catalog``; one observation per event, and
    the catalog the run ends with.

    Queries are answered in the order they were sent, each against the
    source's state at the moment its answer is delivered — a legal FIFO
    schedule.  ``("recover",)`` swaps the catalog for its codec round
    trip (the oracle, which has no codec form, goes on as it is).
    Whatever the script left over is flushed at the end, so the final
    states can be held against the source oracle.
    """
    written_keys(catalog, WITNESS)  # opens the journals observe reads
    source = MemorySource(SCHEMAS, INITIAL)
    in_flight = deque()
    pending_updates = deque(workload)
    observations = []
    serial = 0
    tail = (
        [("update", 1)] * len(workload)
        + [("refresh",)]
        + [("answer",)] * (4 * len(workload) * len(catalog.algorithms) + 4)
    )
    for step in list(script) + tail:
        if step[0] == "update":
            notifications = []
            while pending_updates and len(notifications) < step[1]:
                update = pending_updates.popleft()
                source.apply_update(update)
                serial += 1
                notifications.append(UpdateNotification(update, serial))
            if not notifications:
                continue
            if len(notifications) == 1:
                routed = catalog.on_update("source", notifications[0])
            else:
                routed = catalog.on_update_batch(
                    "source", UpdateBatch(tuple(notifications))
                )
        elif step[0] == "answer":
            if not in_flight:
                continue
            request = in_flight.popleft()
            routed = catalog.on_answer(
                "source",
                QueryAnswer(request.query_id, source.evaluate(request.query)),
            )
        elif step[0] == "refresh":
            routed = catalog.on_refresh()
        else:
            if isinstance(catalog, WarehouseCatalog):
                catalog = loads_algorithm(dumps_algorithm(catalog))
                written_keys(catalog, WITNESS)
            continue
        in_flight.extend(request for _, request in routed)
        observations.append(observe(catalog, routed))
    final = source.snapshot()
    for name, algorithm in catalog.algorithms.items():
        assert algorithm.is_quiescent(), name
        assert algorithm.view_state() == evaluate_view(algorithm.view, final), name
    return observations, catalog


steps = st.one_of(
    st.tuples(st.just("update"), st.sampled_from([1, 2, 4])),
    st.tuples(st.just("answer")),
    st.tuples(st.just("answer")),
    st.tuples(st.just("refresh")),
    st.tuples(st.just("recover")),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(ECA_FAMILY), min_size=2, max_size=4),
    st.lists(
        st.tuples(st.sampled_from(sorted(VARIANTS)), st.sampled_from(ECA_FAMILY)),
        max_size=2,
        unique_by=lambda pair: pair[0],
    ),
    st.booleans(),
    st.integers(0, 10_000),
    st.integers(1, 10),
    st.lists(steps, max_size=30),
)
def test_class_sharing_is_invisible(equal, variants, share, seed, k, script):
    workload = random_workload(
        SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True
    )
    ours, _ = drive(build_catalog(equal, variants, share), workload, script)
    theirs, _ = drive(
        build_catalog(equal, variants, share, oracle=True), workload, script
    )
    assert len(ours) == len(theirs)
    for index, (mine, reference) in enumerate(zip(ours, theirs)):
        assert mine == reference, index


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ECA_FAMILY),
    st.integers(2, 4),
    st.integers(0, 10_000),
    st.integers(2, 10),
    st.lists(steps, max_size=30),
)
def test_divergence_is_safe(name, members, seed, k, script):
    """Sharing off: every member is a class of one and each request has
    its own global id, so the answers of equal views land in different
    events — and every member still equals its private algorithm."""
    workload = random_workload(
        SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True
    )
    ours, catalog = drive(build_catalog([name] * members, [], False), workload, script)
    theirs, _ = drive(
        build_catalog([name] * members, [], False, oracle=True), workload, script
    )
    assert ours == theirs
    assert len(catalog.classes()) == members + 1


def test_divergence_actually_occurs_and_hits_by_value_after_recovery():
    """The scripted core of (b), so that it cannot pass vacuously; and
    the class found again by value once a round trip decoded its
    members apart."""
    workload = [
        insert("r1", (10, 2)),
        insert("r2", (2, 20)),
        insert("r1", (11, 3)),
        insert("r2", (3, 21)),
    ]
    script = (
        [("update", 1)]        # E0 and E1 each send a query
        + [("answer",)]        # E0's answer only: pending lists now differ
        + [("update", 1)]
        + [("answer",)] * 8    # everything answered: equal states again
        + [("update", 1)]      # left pending ...
        + [("recover",)]       # ... through a round trip
        + [("update", 1)]
    )
    apart, _ = drive(build_catalog(["eca", "eca"], [], False), workload, script)
    oracle, _ = drive(
        build_catalog(["eca", "eca"], [], False, oracle=True), workload, script
    )
    assert apart == oracle
    members = apart[1][2]
    assert members["E0"][0] != members["E1"][0]
    catalog = build_catalog(["eca", "eca"], [], True)
    classes = [names for _, names in catalog.classes()]
    assert classes == [("E0", "E1"), ("other",)]
    together, catalog = drive(catalog, workload, script)
    assert [names for _, names in catalog.classes()] == classes
    oracle, _ = drive(
        build_catalog(["eca", "eca"], [], True, oracle=True), workload, script
    )
    assert together == oracle


# --------------------------------------------------------------------- #
# (c) the interest map
# --------------------------------------------------------------------- #

BASES = [
    RelationSchema("p", ("A", "B")),
    RelationSchema("q", ("B", "C")),
    RelationSchema("r", ("A", "B")),
]
NAMES = ["p", "q", "r", "p1", "p2", "q1", "nobody"]


@st.composite
def spj_views(draw, name):
    """A view over one to three occurrences, aliased or not, of drawn
    base relations (the same base twice is a self-join)."""
    count = draw(st.integers(1, 3))
    schemas = []
    used = set()
    for _ in range(count):
        base = draw(st.sampled_from(BASES))
        alias = draw(st.sampled_from([None, f"{base.name}1", f"{base.name}2"]))
        schema = base if alias is None else base.aliased(alias)
        if schema.name in used:
            continue
        used.add(schema.name)
        schemas.append(schema)
    first = schemas[0]
    return View(name, schemas, [f"{first.name}.{first.attributes[0]}"])


@st.composite
def any_view(draw, name):
    if draw(st.booleans()):
        return draw(spj_views(name))
    branches = [
        (draw(st.sampled_from([1, -1])), draw(spj_views(f"{name}b{index}")))
        for index in range(draw(st.integers(1, 3)))
    ]
    return UnionView(name, branches)


def reacts(view, relation):
    """The rule, written out: some occurrence is named ``relation`` or
    reads the stored relation ``relation``."""
    branches = (
        [branch for _, branch in view.branches]
        if isinstance(view, UnionView)
        else [view]
    )
    return any(
        relation in (schema.name, schema.base)
        for branch in branches
        for schema in branch.relations
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda count: st.tuples(*[any_view(f"V{index}") for index in range(count)])
    ),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=4),
)
def test_a_member_is_delivered_to_iff_its_view_involves_the_relation(
    views, relations
):
    delivered = []

    class Probe(ECA):
        def on_update(self, source, notification):
            delivered.append(self.view.name)
            return []

        def on_update_batch(self, source, batch):
            delivered.append(self.view.name)
            return []

    catalog = WarehouseCatalog({view.name: Probe(view) for view in views})
    for view in views:
        for relation in NAMES:
            assert view.involves(relation) == reacts(view, relation)
            assert (relation in view.reactive_relations()) == reacts(view, relation)
    row = (0, 0)
    for serial, relation in enumerate(relations, start=1):
        del delivered[:]
        catalog.on_update("s", UpdateNotification(insert(relation, row), serial))
        assert delivered == [
            view.name for view in views if view.involves(relation)
        ], relation
    del delivered[:]
    catalog.on_update_batch(
        "s",
        UpdateBatch(
            tuple(
                UpdateNotification(insert(relation, row), serial)
                for serial, relation in enumerate(relations, start=1)
            )
        ),
    )
    assert delivered == [
        view.name
        for view in views
        if any(view.involves(relation) for relation in relations)
    ]
