"""Property tests: the UQS's probe index keeps only what is pending, and
an update visits only the pending queries it compensates.

ECA keeps one :class:`repro.core.compensation.ProbeIndex` over its whole
UQS: an update files the queries issued since the last update of its
relation, then looks its tuple's values up; an answer retires its query
at once; a codec round trip starts a new index.  Over drawn scripts of
updates, answers and recoveries — one ECA, and a two-member class of a
catalog with sharing on — after every event:

- **no leak**: the index holds entries only for live UQS ids, no empty
  bucket or column, and every entry is where its query's record says;
  once the UQS drains, it holds nothing;
- **visits, counted**: the pending queries an update's lookup returns are
  exactly those the scan-all builder finds a candidate term in (the scan
  less :func:`reference_builder.probe_drops`), each with at least one
  term, in id order; and the lookup equals a fresh index's;
- **filing, counted**: an update files exactly the pending queries its
  relation's table has not seen, and no query is filed twice into one
  table over the whole run.
"""

from collections import deque
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_builder import probe_drops
from repro.core import compensation
from repro.core.compensation import ProbeIndex
from repro.core.eca import ECA
from repro.durability.codec import dumps_algorithm, loads_algorithm
from repro.errors import UpdateError
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.conditions import And, Comparison, attr
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
E1, E2 = R2.aliased("e1"), R2.aliased("e2")
SCHEMAS = [R1, R2, R3]

VIEWS = [
    View.natural_join("chain", SCHEMAS, ["W", "Z"]),
    View(
        "selfjoin",
        [R1, E1, E2],
        ["W", "e2.Y"],
        And(
            Comparison(attr("r1.X"), "=", attr("e1.X")),
            Comparison(attr("e1.Y"), "=", attr("e2.X")),
        ),
    ),
]

values = st.sampled_from([0, 1, 2, 1.0, True])
updates = st.builds(
    lambda relation, row, is_insert: (insert if is_insert else delete)(relation, row),
    st.sampled_from(["r1", "r2", "r3"]),
    st.tuples(values, values),
    st.booleans(),
)
steps = st.one_of(updates, updates, updates, st.just("answer"), st.just("recover"))


def assert_no_leak(algorithm):
    """The index over ``algorithm.uqs`` holds live ids only, and nothing
    empty."""
    index = algorithm.probe_index
    assert index.uqs is algorithm.uqs
    live = set(algorithm.uqs)
    for table in index.tables.values():
        assert set(table.always) <= live
        assert set(table.placed) <= live
        assert all(table.always.values())
        placed = set()
        for column, by_value in table.columns.items():
            assert by_value, column
            for value, bucket in by_value.items():
                assert bucket, (column, value)
                assert set(bucket) <= live
                placed.update((query_id, column, value) for query_id in bucket)
        assert placed == {
            (query_id, column, value)
            for query_id, where in table.placed.items()
            for column, value in where
        }
        if not live:
            assert not table.always and not table.columns and not table.placed


def with_a_candidate(pending, update):
    """Ids of the queries in ``pending`` (id -> query) in which the scan
    finds a term the probe builds, ascending."""
    signed = update.signed_tuple()
    return [
        query_id
        for query_id, query in pending.items()
        if any(
            not probe_drops(term, update.relation)
            for term in query.substitute(update.relation, signed, -1).terms
        )
    ]


class Counted:
    """Records what each :meth:`ProbeIndex.hits` returned and every
    ``(table, query id)`` that ``_Table.file`` filed — in ``empty`` too
    when that filed no term — while :meth:`open`."""

    def __init__(self):
        self.lookups = []
        self.filings = []
        self.empty = []

    @contextmanager
    def open(self):
        hits, file = ProbeIndex.hits, compensation._Table.file

        def counting_hits(index, relation, values):
            pending = dict(index.uqs)
            found = hits(index, relation, values)
            self.lookups.append((pending, relation, values, found))
            return found

        def counting_file(table, query_id, terms, relation):
            self.filings.append((table, query_id))
            file(table, query_id, terms, relation)
            if query_id not in table.always and query_id not in table.placed:
                self.empty.append((table, query_id))

        with mock.patch.object(ProbeIndex, "hits", counting_hits), mock.patch.object(
            compensation._Table, "file", counting_file
        ):
            yield self


def check_update(counted, algorithm, update, tables, filed, filings):
    """One update's lookup and filings (``counted.filings[filings:]``),
    against the scan, a fresh index, and ``tables`` — the index's tables
    before the update, whose table for the update's relation had filed up
    to ``filed``."""
    lookups, counted.lookups = counted.lookups, []
    [(pending, relation, values, found)] = lookups
    assert relation == update.relation and values == update.values
    assert [query_id for query_id, _ in found] == with_a_candidate(pending, update)
    assert all(indices for _, indices in found)
    assert found == ProbeIndex(dict(pending)).hits(relation, values)
    counted.lookups.clear()  # the fresh index's own lookup
    table = algorithm.probe_index.tables.get(relation)
    newly = [q for filed_in, q in counted.filings[filings:] if filed_in is table]
    if tables is algorithm.probe_index.tables:
        assert newly == [query_id for query_id in pending if query_id > filed]
    else:
        assert newly == list(pending)


def drive(warehouse, member_of, script):
    """Run ``script`` on ``warehouse`` (an ECA, or a catalog) with a live
    source answering in FIFO order; ``member_of(warehouse)`` is the ECA
    whose index is checked after every event."""
    with Counted().open() as counted:
        run(counted, warehouse, member_of, script)


def run(counted, warehouse, member_of, script):
    source = MemorySource(SCHEMAS)
    in_flight = deque()

    def answer():
        request = in_flight.popleft()
        reply = QueryAnswer(request.query_id, source.evaluate(request.query))
        warehouse.on_answer("source", reply)

    for serial, step in enumerate(script, start=1):
        if step == "answer":
            if in_flight:
                answer()
        elif step == "recover":
            warehouse = loads_algorithm(dumps_algorithm(warehouse))
            assert not member_of(warehouse).probe_index.tables
        else:
            try:
                source.apply_update(step)
            except UpdateError:
                continue
            algorithm = member_of(warehouse)
            tables = algorithm.probe_index.tables
            table = tables.get(step.relation)
            filed = 0 if table is None else table.filed
            filings = len(counted.filings)
            routed = warehouse.on_update("source", UpdateNotification(step, serial))
            in_flight.extend(request for _, request in routed)
            if algorithm.view.involves(step.relation):
                check_update(counted, algorithm, step, tables, filed, filings)
            else:
                assert not counted.lookups and len(counted.filings) == filings
        assert_no_leak(member_of(warehouse))
    # Each (table, id) once; the tables are still referenced here, so no
    # two of them share an id().
    assert len({(id(table), q) for table, q in counted.filings}) == len(counted.filings)
    while in_flight:
        answer()
    assert not member_of(warehouse).uqs
    assert_no_leak(member_of(warehouse))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VIEWS), st.lists(steps, min_size=1, max_size=40))
def test_one_eca_indexes_what_is_pending_and_visits_what_it_compensates(view, script):
    drive(ECA(view), lambda algorithm: algorithm, script)


@settings(max_examples=80, deadline=None)
@given(st.lists(steps, min_size=1, max_size=40))
def test_a_shared_class_keeps_one_index_for_both_members(script):
    """Two equally defined views, sharing on, are one ECA with one index."""
    catalog = WarehouseCatalog(
        {name: ECA(View.natural_join(name, SCHEMAS, ["W", "Z"])) for name in ("V0", "V1")},
        share_compensation=True,
    )

    def member(warehouse):
        ((algorithm, names),) = warehouse.classes()
        assert names == ("V0", "V1")
        return algorithm

    drive(catalog, member, script)


def test_a_long_run_visits_few_and_leaves_nothing_behind():
    """A scripted storm over the chain view with up to eight queries in
    flight, then drained: the lookups visit 303 pending queries, each one
    with a candidate, where a scan visits 765 (counts the script fixes),
    and every table empties.  No filing files nothing: the chain holds
    each relation once, so a query an update of ``r`` built binds ``r``
    in every term, and ``r``'s table takes it as filed unwalked."""
    algorithm = ECA(VIEWS[0])
    source = MemorySource(SCHEMAS)
    in_flight = deque()

    def answer():
        request = in_flight.popleft()
        reply = QueryAnswer(request.query_id, source.evaluate(request.query))
        algorithm.on_answer("source", reply)

    serial = 0
    with Counted().open() as counted:
        for round_ in range(30):
            for relation in ("r1", "r2", "r3"):
                serial += 1
                update = insert(relation, (serial % 7, serial % 5))
                source.apply_update(update)
                routed = algorithm.on_update("source", UpdateNotification(update, serial))
                in_flight.extend(request for _, request in routed)
            while len(in_flight) > 8:
                answer()
            assert_no_leak(algorithm)
    scanned = sum(len(pending) for pending, _, _, _ in counted.lookups)
    visited = sum(len(found) for _, _, _, found in counted.lookups)
    assert visited == sum(
        len(with_a_candidate(pending, insert(relation, values)))
        for pending, relation, values, _ in counted.lookups
    )
    assert (visited, scanned) == (303, 765)
    assert counted.filings and not counted.empty
    while in_flight:
        answer()
    assert algorithm.is_quiescent()
    assert_no_leak(algorithm)
