"""Property tests: a term its bound tuples falsify is dropped, and nothing shows.

ECA's split (:func:`repro.core.compensation.split`) drops a built term
when a conjunct that reads bound operands only is false on their tuples.
Three things can go wrong, and each has a property here:

(a) *unsound* — a dropped term is not empty after all.  Every term the
    split drops from ECA-shaped queries (``V<U> - sum_j Q_j<U>`` over a
    drawn storm, built whole by ``reference_builder.compensate_by_scan``)
    evaluates to the empty bag, under the engine and under
    the row-at-a-time reference, on drawn states with ``None`` values:
    views with constant conjuncts, ``Or`` / ``Not`` conjuncts, an
    aliased self-join (inclusion-exclusion terms) and a union.  Over
    mixed types, and views whose comparisons that raise come first, a
    dropped term evaluates to the empty bag *without raising*, on a
    snapshot and through a live ``MemorySource``.
(b) *visible* — dropping changes what the warehouse does.  A catalog of
    one ECA-family algorithm (sharing on) is driven over a drawn script
    twice: as built, and with ECA building by scanning every pending
    term and splitting by plain ``query.partition()``.  After
    every event the two agree on the
    requests (ids, destinations, count), the answers, every member's
    COLLECT and view; each shipped and each pending query is the
    reference's less exactly its falsified terms, in order.  A
    mid-UQS codec round trip is one of the drawn steps.
(c) *Lemma B.2 breaks* — ``Q'<U>``, for ``Q'`` a pending query less its
    falsified terms, differs from ``Q<U>`` by falsified terms only, and
    satisfies the lemma with ``Q``'s value.

Views in (b) have no conjunct that reads one operand only: such a
conjunct can falsify all of an update's ``V<U>`` (an irrelevant update),
and then the change ships nothing where the reference ships a query whose
answer is empty — by design, and pinned in
``tests/unit/test_compensation.py``.
"""

from collections import deque
from itertools import chain

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_builder import compensate_by_scan, indexed, scanning
from repro.core.compensation import split
from repro.core.registry import create_algorithm
from repro.durability.codec import dumps_algorithm, loads_algorithm
from repro.messaging.messages import QueryAnswer, UpdateBatch, UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.conditions import (
    And,
    Comparison,
    Const,
    Not,
    Or,
    attr,
    flatten_conjuncts,
)
from repro.relational.engine import evaluate_query, evaluate_view
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"), key=("Y",))
R3 = RelationSchema("r3", ("Y", "Z"), key=("Z",))
E1, E2 = R2.aliased("e1"), R2.aliased("e2")
SCHEMAS = [R1, R2, R3]


def falsified(term):
    """Written out: some conjunct reading only bound operands is false on
    their tuples (one product row, the free operands' columns blank)."""
    product = term.product
    row = tuple(
        chain.from_iterable(
            op.tuple.values if op.is_bound else (None,) * op.schema.arity
            for op in term.operands
        )
    )
    bound = set()
    offset = 0
    for op in term.operands:
        if op.is_bound:
            bound.update(range(offset, offset + op.schema.arity))
        offset += op.schema.arity
    return any(
        {product.resolve(name) for name in conjunct.attributes()} <= bound
        and not conjunct.bind(product)(row)
        for conjunct in flatten_conjuncts(term.condition)
    )


def dropped_by_split(query):
    kept = {id(term) for part in split(query) for term in part.terms}
    return [term for term in query.terms if id(term) not in kept]


# --------------------------------------------------------------------- #
# (a) soundness
# --------------------------------------------------------------------- #

#: Conjunct orders put comparisons that can raise on ``None`` after the
#: ones the engine decides earlier, so that the row-at-a-time reference
#: (which tests conjuncts in written order) never meets one first either.
SOUND_VIEWS = [
    View.natural_join(
        "consts",
        SCHEMAS,
        ["W", "Z"],
        And(
            Comparison(attr("r2.Y"), "!=", Const(1)),
            Comparison(attr("W"), "<=", attr("Z")),
        ),
    ),
    View.natural_join(
        "ornot",
        [R1, R2],
        ["W", "Y"],
        And(
            Or(
                Comparison(attr("W"), "=", attr("Y")),
                Not(Comparison(attr("r2.X"), "=", Const(2))),
            ),
            Not(Comparison(attr("r1.W"), ">", Const(1))),
        ),
    ),
    View(
        "pairs",
        [E1, E2],
        ["e1.X", "e2.Y"],
        And(
            Comparison(attr("e1.Y"), "=", attr("e2.X")),
            Comparison(attr("e1.X"), "<", attr("e2.Y")),
        ),
    ),
    UnionView(
        "union",
        [
            (1, View.natural_join(
                "a", [R1, R2], ["W"], Comparison(attr("r2.Y"), "=", Const(1))
            )),
            (-1, View.natural_join(
                "b", [R1, R2], ["W"], Comparison(attr("r1.W"), "!=", Const(None))
            )),
        ],
    ),
]

values = st.one_of(st.none(), st.integers(0, 3))
rows = st.tuples(values, values)
states = st.fixed_dictionaries(
    {name: st.lists(rows, max_size=4) for name in ("r1", "r2", "r3")}
)
storm_updates = st.builds(
    lambda relation, row, is_insert: (insert if is_insert else delete)(relation, row),
    st.sampled_from(["r1", "r2", "r3"]),
    rows,
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SOUND_VIEWS),
    st.lists(storm_updates, min_size=1, max_size=6),
    states,
)
def test_every_dropped_term_is_empty(view, storm, state):
    bags = {name: SignedBag.from_rows(rows) for name, rows in state.items()}
    pending = []
    for update in storm:
        if not view.involves(update.relation):
            continue
        query = compensate_by_scan(view, update, indexed(pending))
        for term in dropped_by_split(query):
            assert falsified(term), term
            assert evaluate_query(Query([term]), bags).is_empty(), term
            assert term.evaluate(bags).is_empty(), term
        pending.append(query)


#: Comparisons that raise on mixed types, decided before the conjunct the
#: bound tuples falsify in condition order — or reading a free operand.
RAISING_VIEWS = [
    View.natural_join(
        "gt_first",
        SCHEMAS,
        ["W", "Z"],
        And(
            Comparison(attr("W"), ">", attr("Z")),
            Comparison(attr("r2.Y"), "<", Const(2)),
        ),
    ),
    View(
        "free_first",
        [R1, R2],
        ["W"],
        And(
            Comparison(attr("r1.W"), ">", attr("r2.Y")),
            Comparison(attr("r2.X"), "=", Const(2)),
            Comparison(attr("r1.X"), "=", attr("r2.X")),
        ),
    ),
    View(
        "pairs_lt",
        [E1, E2],
        ["e1.X", "e2.Y"],
        And(
            Comparison(attr("e1.X"), "<", attr("e2.Y")),
            Comparison(attr("e1.Y"), "=", attr("e2.X")),
        ),
    ),
]

mixed = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["a", 1.0, True]))
mixed_rows = st.tuples(mixed, mixed)
mixed_states = st.fixed_dictionaries(
    {name: st.lists(mixed_rows, max_size=4) for name in ("r1", "r2", "r3")}
)
mixed_updates = st.builds(
    lambda relation, row, is_insert: (insert if is_insert else delete)(relation, row),
    st.sampled_from(["r1", "r2", "r3"]),
    mixed_rows,
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SOUND_VIEWS + RAISING_VIEWS),
    st.lists(mixed_updates, min_size=1, max_size=6),
    mixed_states,
)
def test_a_dropped_term_evaluates_to_nothing_without_raising(view, storm, state):
    """Over ``None`` and mixed types, whatever the conjunct order: every
    term the split drops evaluates to the empty bag *without raising* —
    on a fresh snapshot, and through a live ``MemorySource`` whose kept
    batches and bucket maps the storm's updates have been maintaining —
    because the engine decides its falsified conjunct on bound tuples
    before it reads any free extent."""
    source = MemorySource(SCHEMAS, state)
    pending = []
    for update in storm:
        if update.is_delete and source.relation(update.relation).multiplicity(
            update.values
        ) <= 0:
            continue
        source.apply_update(update)
        if not view.involves(update.relation):
            continue
        query = compensate_by_scan(view, update, indexed(pending))
        for term in dropped_by_split(query):
            assert evaluate_query(Query([term]), source.snapshot()).is_empty(), term
            assert source.evaluate(Query([term])).is_empty(), term
        # What is shipped fills the source's batches and bucket maps, and
        # raises there exactly when it raises on a fresh snapshot: a
        # deleted row the source still holds at count 0 compares nothing.
        shipped = split(query)[1]
        assert outcome(source.evaluate, shipped) == outcome(
            lambda q: evaluate_query(q, source.snapshot()), shipped
        )
        pending.append(query)


def outcome(evaluate, query):
    try:
        return evaluate(query)
    except TypeError:
        return TypeError


# --------------------------------------------------------------------- #
# (b) invisibility
# --------------------------------------------------------------------- #


INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)], "r3": [(5, 1), (6, 2)]}

#: Conjuncts over two operands or more only (see the module docstring).
INVISIBLE_VIEWS = {
    "ornot": lambda name: View.natural_join(
        name,
        [R1, R2],
        ["W", "Y"],
        Or(
            Comparison(attr("W"), "<", attr("Y")),
            Not(Comparison(attr("W"), "!=", attr("Y"))),
        ),
    ),
    "chain": lambda name: View.natural_join(
        name, SCHEMAS, ["W", "Z"], Comparison(attr("W"), "<=", attr("Z"))
    ),
    "pairs": lambda name: View(
        name,
        [E1, E2],
        ["e1.X", "e2.Y"],
        Comparison(attr("e1.Y"), "=", attr("e2.X")),
    ),
}

ALGORITHMS = [
    ("eca", {}),
    ("eca-local", {}),
    ("batch-eca", {"batch_size": 1}),
    ("batch-eca", {"batch_size": 2}),
    ("batch-eca", {"batch_size": 4}),
    ("deferred-eca", {}),
]


def build_catalog(algorithm, config, kinds):
    """One member per entry of ``kinds``; equal kinds make a class."""
    state = MemorySource(SCHEMAS, INITIAL).snapshot()
    members = {}
    for index, kind in enumerate(kinds):
        view = INVISIBLE_VIEWS[kind](f"V{index}")
        members[view.name] = create_algorithm(
            algorithm, view, evaluate_view(view, state), **config
        )
    return WarehouseCatalog(members, share_compensation=True)


def drive(catalog, workload, script, reference):
    """One observation per event: the requests sent, the answer taken,
    every member's UQS, COLLECT and view.  The reference builds by
    scanning every pending query's terms and splits by
    ``query.partition()`` — nothing dropped."""
    if reference:
        with scanning(split=lambda query: query.partition()):
            return drive(catalog, workload, script, False)
    source = MemorySource(SCHEMAS, INITIAL)
    pending_updates = deque(workload)
    in_flight = deque()
    serial = 0
    observations = []
    tail = (
        [("update", 1)] * len(workload)
        + [("refresh",)]
        + [("answer",)] * (6 * len(workload) * len(catalog.algorithms) + 4)
    )
    for step in list(script) + tail:
        answer = None
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
            answer = source.evaluate(request.query)
            routed = catalog.on_answer("source", QueryAnswer(request.query_id, answer))
        elif step[0] == "refresh":
            routed = catalog.on_refresh()
        else:
            catalog = loads_algorithm(dumps_algorithm(catalog))
            continue
        in_flight.extend(request for _, request in routed)
        members = {
            name: (
                list(algorithm.uqs.items()),
                algorithm.collect.copy(),
                algorithm.view_state(),
            )
            for name, algorithm in catalog.algorithms.items()
        }
        observations.append((routed, answer, members))
    final = source.snapshot()
    for name, algorithm in catalog.algorithms.items():
        assert algorithm.is_quiescent(), name
        assert algorithm.view_state() == evaluate_view(algorithm.view, final), name
    return observations


def assert_pruned(ours, theirs):
    """``ours`` is ``theirs`` less exactly its falsified terms, in order."""
    assert list(ours.terms) == [t for t in theirs.terms if not falsified(t)]


def assert_invisible(ours, theirs):
    assert len(ours) == len(theirs)
    dropped = 0
    for index, (mine, reference) in enumerate(zip(ours, theirs)):
        routed, answer, members = mine
        routed_ref, answer_ref, members_ref = reference
        assert [(d, r.query_id) for d, r in routed] == [
            (d, r.query_id) for d, r in routed_ref
        ], index
        for (_, request), (_, request_ref) in zip(routed, routed_ref):
            assert_pruned(request.query, request_ref.query)
            dropped += request_ref.query.term_count() - request.query.term_count()
        assert answer == answer_ref, index
        assert members.keys() == members_ref.keys()
        for name, (uqs, collect, view) in members.items():
            uqs_ref, collect_ref, view_ref = members_ref[name]
            assert [qid for qid, _ in uqs] == [qid for qid, _ in uqs_ref], index
            for (_, query), (_, query_ref) in zip(uqs, uqs_ref):
                assert_pruned(query, query_ref)
            assert collect == collect_ref, (index, name)
            assert view == view_ref, (index, name)
    return dropped


steps = st.one_of(
    st.tuples(st.just("update"), st.sampled_from([1, 2, 4])),
    st.tuples(st.just("answer")),
    st.tuples(st.just("answer")),
    st.tuples(st.just("refresh")),
    st.tuples(st.just("recover")),
)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(ALGORITHMS),
    st.lists(st.sampled_from(sorted(INVISIBLE_VIEWS)), min_size=1, max_size=3),
    st.integers(0, 10_000),
    st.integers(1, 10),
    st.lists(steps, max_size=30),
)
def test_pruning_is_invisible(algorithm, kinds, seed, k, script):
    name, config = algorithm
    workload = random_workload(SCHEMAS, k, seed=seed, initial=INITIAL, respect_keys=True)
    ours = drive(build_catalog(name, config, kinds), workload, script, False)
    theirs = drive(build_catalog(name, config, kinds), workload, script, True)
    assert_invisible(ours, theirs)


def test_pruning_is_invisible_on_a_storm_that_prunes():
    """The scripted core of (b), so that it cannot pass vacuously: two
    updates in flight, then one that meets both, then a round trip with
    the UQS full, then the answers."""
    workload = [
        insert("r1", (4, 2)),
        insert("r2", (3, 7)),   # X = 3 meets no r1 tuple above
        insert("r3", (7, 9)),
        insert("r1", (5, 3)),
    ]
    script = [("update", 1)] * 3 + [("recover",)] + [("update", 1)]
    for name, config in ALGORITHMS:
        kinds = ["chain", "chain", "ornot"]
        ours = drive(build_catalog(name, config, kinds), workload, script, False)
        theirs = drive(build_catalog(name, config, kinds), workload, script, True)
        assert assert_invisible(ours, theirs) > 0, name


# --------------------------------------------------------------------- #
# (c) Lemma B.2 over pruned queries
# --------------------------------------------------------------------- #

int_rows = st.tuples(st.integers(0, 3), st.integers(0, 3))
int_states = st.fixed_dictionaries(
    {name: st.lists(int_rows, max_size=4) for name in ("r1", "r2", "r3")}
)
int_updates = st.builds(
    lambda relation, row, is_insert: (insert if is_insert else delete)(relation, row),
    st.sampled_from(["r1", "r2", "r3"]),
    int_rows,
    st.booleans(),
)


@st.composite
def pending_queries(draw):
    """A query as the reference's UQS would hold it: ``V<U>`` compensated
    against a few later updates."""
    view = draw(st.sampled_from(list(INVISIBLE_VIEWS.values())))("V")
    first = draw(int_updates.filter(lambda u: view.involves(u.relation)))
    query = view.substitute(first.relation, first.signed_tuple())
    for later in draw(st.lists(int_updates, max_size=4)):
        if view.involves(later.relation):
            query = query - query.substitute(later.relation, later.signed_tuple())
    return query


def apply_update(bags, update):
    after = {name: bag.copy() for name, bag in bags.items()}
    after[update.relation].add(update.values, update.sign)
    return after


@settings(max_examples=150, deadline=None)
@given(pending_queries(), int_updates, int_states)
def test_lemma_b2_over_pruned_queries(query, update, state):
    dropped = {id(term) for term in dropped_by_split(query)}
    pruned = Query([term for term in query.terms if id(term) not in dropped])
    signed = update.signed_tuple()
    full, ours = query.substitute(update.relation, signed), pruned.substitute(
        update.relation, signed
    )
    # Q'<U> is a subsequence of Q<U>; what it leaves out is falsified.
    remaining = list(ours.terms)
    for term in full.terms:
        if remaining and term == remaining[0]:
            remaining.pop(0)
        else:
            assert falsified(term), term
    assert remaining == []
    before = {name: SignedBag.from_rows(rows) for name, rows in state.items()}
    if update.is_delete:
        assume(before[update.relation].multiplicity(update.values) > 0)
    after = apply_update(before, update)
    assert pruned.evaluate(before) == query.evaluate(before)
    assert pruned.evaluate(before) == pruned.evaluate(after) - ours.evaluate(after)
