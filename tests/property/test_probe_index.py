"""Property tests: the UQS's probe index keeps only what is pending, walks
each pending query once, and an update visits only the pending queries it
compensates.

ECA keeps one :class:`repro.core.compensation.ProbeIndex` over its whole
UQS: an update walks the queries issued since the index's watermark,
filing each for every relation it holds, then looks its tuple's values
up; an answer retires its query at once; a codec round trip starts a new
index.  Over drawn scripts of updates, answers and recoveries — one ECA,
and a two-member class of a catalog with sharing on — after every event:

- **no leak**: the index holds entries only for live UQS ids, no empty
  bucket or column, and every entry is where its query's record says;
  once the UQS drains, it holds nothing;
- **visits, counted**: the pending queries an update's lookup returns are
  exactly those the scan-all builder finds a candidate term in (the scan
  less :func:`reference_builder.probe_drops`), each with at least one
  term, in id order; and the lookup equals a fresh index's;
- **walks, counted**: an update walks exactly the pending queries issued
  since its index's watermark (all of them on a new index), and no query
  is walked twice by one index over the whole run.

A copy — a codec round trip, or the catalog's class ``_copy`` — walks
each surviving query once at its first update, and hits as the live
index does.
"""

from collections import deque
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_builder import probe_drops
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
from repro.warehouse.catalog import WarehouseCatalog, _copy

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
    ``(index, query id)`` that ``ProbeIndex._file`` walked — in ``empty``
    too when that filed no term — while :meth:`open`."""

    def __init__(self):
        self.lookups = []
        self.walks = []
        self.empty = []

    @contextmanager
    def open(self):
        hits, walk = ProbeIndex.hits, ProbeIndex._file

        def counting_hits(index, relation, values):
            pending = dict(index.uqs)
            found = hits(index, relation, values)
            self.lookups.append((pending, relation, values, found))
            return found

        def counting_walk(index, query_id, terms):
            self.walks.append((index, query_id))
            walk(index, query_id, terms)
            if not any(
                query_id in table.always or query_id in table.placed
                for table in index.tables.values()
            ):
                self.empty.append((index, query_id))

        with mock.patch.object(ProbeIndex, "hits", counting_hits), mock.patch.object(
            ProbeIndex, "_file", counting_walk
        ):
            yield self


def check_update(counted, algorithm, update, index, filed, walks):
    """One update's lookup and walks (``counted.walks[walks:]``), against
    the scan, a fresh index, and ``index`` — the algorithm's index before
    the update, whose watermark was ``filed``."""
    lookups, counted.lookups = counted.lookups, []
    [(pending, relation, values, found)] = lookups
    assert relation == update.relation and values == update.values
    assert [query_id for query_id, _ in found] == with_a_candidate(pending, update)
    assert all(indices for _, indices in found)
    assert found == ProbeIndex(dict(pending)).hits(relation, values)
    counted.lookups.clear()  # the fresh index's own lookup
    live = algorithm.probe_index
    newly = [q for walked_by, q in counted.walks[walks:] if walked_by is live]
    if index is live:
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
            index = member_of(warehouse).probe_index
            assert not index.tables and index.filed == 0
        else:
            try:
                source.apply_update(step)
            except UpdateError:
                continue
            algorithm = member_of(warehouse)
            index = algorithm.probe_index
            filed, walks = index.filed, len(counted.walks)
            routed = warehouse.on_update("source", UpdateNotification(step, serial))
            in_flight.extend(request for _, request in routed)
            if algorithm.view.involves(step.relation):
                check_update(counted, algorithm, step, index, filed, walks)
            else:
                assert not counted.lookups and len(counted.walks) == walks
        assert_no_leak(member_of(warehouse))
    # Each (index, id) once; the indexes are still referenced here, so no
    # two of them share an id().
    assert len({(id(index), q) for index, q in counted.walks}) == len(counted.walks)
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


class Storm:
    """The long run's script over the chain view: per round one insert
    into each of ``r1``, ``r2`` and ``r3``, then answers in FIFO order
    until at most eight queries are in flight."""

    def __init__(self):
        self.algorithm = ECA(VIEWS[0])
        self.source = MemorySource(SCHEMAS)
        self.in_flight = deque()
        self.issued = []
        self.serial = 0

    def run(self, rounds):
        for _ in range(rounds):
            for relation in ("r1", "r2", "r3"):
                self.serial += 1
                update = insert(relation, (self.serial % 7, self.serial % 5))
                self.source.apply_update(update)
                routed = self.algorithm.on_update(
                    "source", UpdateNotification(update, self.serial)
                )
                self.issued += [request.query_id for _, request in routed]
                self.in_flight.extend(request for _, request in routed)
            while len(self.in_flight) > 8:
                self.answer()
            assert_no_leak(self.algorithm)

    def answer(self):
        request = self.in_flight.popleft()
        reply = QueryAnswer(request.query_id, self.source.evaluate(request.query))
        self.algorithm.on_answer("source", reply)


def test_a_long_run_visits_few_and_leaves_nothing_behind():
    """A scripted storm with up to eight queries in flight, then drained:
    the lookups visit 303 pending queries, each one with a candidate,
    where a scan visits 765 (counts the script fixes), and every table
    empties.  Every query but the last one issued is walked once, in id
    order, and no walk files nothing: a shipped query has an unbound
    operand in some term."""
    storm = Storm()
    with Counted().open() as counted:
        storm.run(30)
    scanned = sum(len(pending) for pending, _, _, _ in counted.lookups)
    visited = sum(len(found) for _, _, _, found in counted.lookups)
    assert visited == sum(
        len(with_a_candidate(pending, insert(relation, values)))
        for pending, relation, values, _ in counted.lookups
    )
    assert (visited, scanned) == (303, 765)
    assert [q for _, q in counted.walks] == storm.issued[:-1]
    assert not counted.empty
    while storm.in_flight:
        storm.answer()
    assert storm.algorithm.is_quiescent()
    assert_no_leak(storm.algorithm)


#: Ways to get an independent twin of a live ECA.
COPIES = {
    "codec round trip": lambda algorithm: loads_algorithm(dumps_algorithm(algorithm)),
    "class copy": _copy,
}


@pytest.mark.parametrize("make", COPIES.values(), ids=list(COPIES))
def test_a_copy_walks_its_uqs_once_and_hits_as_the_live_index(make):
    """A copy of a storm's ECA starts a new index: its first update walks
    each surviving query once, in id order, and finds what the live
    index finds; its next update walks only the query the first built."""
    storm = Storm()
    storm.run(6)
    live = storm.algorithm
    pending = list(live.uqs)
    assert len(pending) >= 6
    hit = 0
    for relation in ("r1", "r2", "r3"):
        for values in [(1, 2), (3, 4), (0, 0)]:
            copy = make(live)
            update = insert(relation, values)
            expected = live.probe_index.hits(relation, values)
            hit += len(expected)
            with Counted().open() as counted:
                copy.on_update("source", UpdateNotification(update, storm.serial + 1))
                [(_, _, _, found)] = counted.lookups
                assert found == expected
                assert counted.walks == [(copy.probe_index, q) for q in pending]
                built = [q for q in copy.uqs if q not in live.uqs]
                again = insert(relation, (5, 5))
                copy.on_update("source", UpdateNotification(again, storm.serial + 2))
                walked = counted.walks[len(pending):]
                assert walked == [(copy.probe_index, q) for q in built]
            assert_no_leak(copy)
    assert hit
