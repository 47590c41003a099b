"""Property tests: a class of views builds its compensating query once.

The compensated query of one event is a pure function of (view
definition, update(s), pending queries in UQS order), so a
:class:`~repro.warehouse.catalog.WarehouseCatalog` gives the structurally
equal members of one algorithm type a single
:class:`~repro.core.compensation.CompensationMemo`, and delivers an
update only to the members whose views react to its relation.  Three
things can go wrong, and each has a property here:

(a) *sharing shows* — a member that took another's query behaves unlike
    the stand-alone algorithm.  A drawn catalog is driven twice over one
    drawn script of updates, batches, answers and refreshes: once as
    built, once with every member given a private memo (what a
    stand-alone algorithm has).  After every event the routed requests
    (as wire bytes), every member's UQS, COLLECT, view contents and
    version, and the event's dirty keys must be equal.
(b) *divergence breaks it* — with sharing off the members' answers
    arrive in different events, so their pending lists differ; a codec
    round trip leaves equal but distinct ``Query`` objects.  Results
    still equal the private-memo run, and where two neighbours of a
    class met an event in equal states the second holds the *same*
    object the first built.
(c) *the interest map drifts from ``involves``* — for drawn views
    (aliases, self-joins, unions) a member is delivered an update exactly
    when its view involves the relation.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compensation import CompensationMemo
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


def build_catalog(equal, variants, share):
    """``equal`` names the algorithm of each structurally equal view (in
    catalog order, the variants and an LCA view between and after them)."""
    state = MemorySource(SCHEMAS, INITIAL).snapshot()
    views = [
        (name, View.natural_join(f"E{index}", SCHEMAS, ["W", "Y"]))
        for index, name in enumerate(equal)
    ]
    views[1:1] = [(name, VARIANTS[key]()) for key, name in variants]
    views.append(("lca", View.natural_join("other", SCHEMAS, ["W", "Y"])))
    return WarehouseCatalog(
        {
            view.name: create_algorithm(name, view, evaluate_view(view, state))
            for name, view in views
        },
        share_compensation=share,
    )


def privatize(catalog):
    """Every member as a stand-alone algorithm: a memo of its own."""
    for algorithm in catalog.algorithms.values():
        if isinstance(algorithm, ECA):
            algorithm.memo = CompensationMemo()
    return catalog


def class_of(algorithm):
    return (type(algorithm), algorithm.view.definition())


def observe(catalog, routed):
    members = {}
    for name, algorithm in catalog.algorithms.items():
        collect = getattr(algorithm, "collect", None)
        members[name] = (
            list(algorithm.uqs.items()),
            None if collect is None else collect.copy(),
            algorithm.mv.as_bag(),
            algorithm.mv.version,
        )
    dirty = catalog.dirty_keys()
    # The catalog drains only the members the event reached; no other
    # member may be left holding a dirty row.
    for name, algorithm in catalog.algorithms.items():
        assert not algorithm.dirty_keys(), name
    wire = [(destination, FRAME.encode(request)) for destination, request in routed]
    return wire, members, dirty


def drive(catalog, workload, script, private):
    """Run ``script`` over ``catalog``; one observation per event.

    Queries are answered in the order they were sent, each against the
    source's state at the moment its answer is delivered — a legal FIFO
    schedule.  ``("recover",)`` swaps the catalog for its codec round
    trip.  Whatever the script left over is flushed at the end, so the
    final states can be held against the source oracle.
    """
    if private:
        privatize(catalog)
    source = MemorySource(SCHEMAS, INITIAL)
    in_flight = deque()
    pending_updates = deque(workload)
    observations = []
    same_object = []
    serial = 0
    tail = (
        [("update", 1)] * len(workload)
        + [("refresh",)]
        + [("answer",)] * (4 * len(workload) * len(catalog.algorithms) + 4)
    )
    for step in list(script) + tail:
        before = {
            name: (class_of(algorithm), algorithm.pending_state())
            for name, algorithm in catalog.algorithms.items()
        }
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
            catalog = loads_algorithm(dumps_algorithm(catalog))
            if private:
                privatize(catalog)
            continue
        in_flight.extend(request for _, request in routed)
        observations.append(observe(catalog, routed))
        same_object.append(neighbours_share(catalog, before))
    final = source.snapshot()
    for name, algorithm in catalog.algorithms.items():
        assert algorithm.is_quiescent(), name
        assert algorithm.view_state() == evaluate_view(algorithm.view, final), name
    return observations, same_object


def neighbours_share(catalog, before):
    """For each two ECAs of one class, adjacent in catalog order within
    it, that met this event in equal states and each sent a query:
    whether they now hold the same ``Query`` object."""
    out = []
    last = {}
    for name, algorithm in catalog.algorithms.items():
        if not isinstance(algorithm, ECA):
            continue
        klass, state = before[name]
        sent = [
            query
            for query_id, query in algorithm.uqs.items()
            if query_id >= state["next_query_id"]
        ]
        previous = last.get(klass)
        if previous is not None and previous[0] == state and sent and previous[1]:
            out.append(sent[-1] is previous[1][-1])
        last[klass] = (state, sent)
    return out


steps = st.one_of(
    st.tuples(st.just("update"), st.sampled_from([1, 2, 4])),
    st.tuples(st.just("answer")),
    st.tuples(st.just("answer")),
    st.tuples(st.just("refresh")),
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
    shared, _ = drive(
        build_catalog(equal, variants, share), workload, script, private=False
    )
    private, _ = drive(
        build_catalog(equal, variants, share), workload, script, private=True
    )
    assert len(shared) == len(private)
    for index, (ours, theirs) in enumerate(zip(shared, private)):
        assert ours == theirs, index


diverging_steps = st.one_of(steps, st.tuples(st.just("recover")))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(ECA_FAMILY),
    st.integers(2, 4),
    st.integers(0, 10_000),
    st.integers(2, 10),
    st.lists(diverging_steps, max_size=30),
)
def test_divergence_is_safe(name, members, seed, k, script):
    """Sharing off: each member's request has its own global id, so the
    answers of one class land in different events."""
    workload = random_workload(
        SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True
    )
    shared, same_object = drive(
        build_catalog([name] * members, [], False), workload, script, private=False
    )
    private, distinct = drive(
        build_catalog([name] * members, [], False), workload, script, private=True
    )
    assert shared == private
    # A hit hands out the identical object; a stand-alone algorithm
    # builds its own equal one.
    assert all(flag for event in same_object for flag in event)
    assert not any(flag for event in distinct for flag in event)
    assert [len(event) for event in same_object] == [len(event) for event in distinct]


def test_divergence_actually_occurs_and_hits_by_value_after_recovery():
    """The scripted core of (b), so that it cannot pass vacuously."""
    workload = [
        insert("r1", (10, 2)),
        insert("r2", (2, 20)),
        insert("r1", (11, 3)),
        insert("r2", (3, 21)),
    ]
    script = (
        [("update", 1)]        # E0 builds, E1 takes the same object
        + [("answer",)]        # E0's answer only: pending lists now differ
        + [("update", 1)]      # E1 misses and builds for itself
        + [("answer",)] * 8    # everything answered: equal states again
        + [("update", 1)]      # same object once more, left pending ...
        + [("recover",)]       # ... equal but distinct after the round trip
        + [("update", 1)]      # E1 hits by value
    )
    catalog = build_catalog(["eca", "eca"], [], False)
    e0, e1 = list(catalog.algorithms.values())[:2]
    assert e0.memo is e1.memo
    _, same_object = drive(catalog, workload, script, private=False)
    assert same_object[0] == [True]
    assert same_object[2] == []
    assert [flags for flags in same_object if flags] == [[True]] * 3
    _, distinct = drive(
        build_catalog(["eca", "eca"], [], False), workload, script, private=True
    )
    assert [flags for flags in distinct if flags] == [[False]] * 3


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
