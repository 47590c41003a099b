"""Property tests: ECA's probing builder is the scan-all builder, split.

``V<U> - sum_j Q_j<U>`` is built from the UQS's probe index
(:class:`repro.core.compensation.ProbeIndex`): a term whose first
bound check is an equality with the update's tuple is substituted only
when the update's value hits its bucket.  Against the scan-all builder
(``reference_builder.compensate_by_scan``), after every update of a
drawn storm:

- the built query is the scan's less exactly the terms whose first
  check, such an equality, is false — in order;
- the local delta and the remote query equal the scan's, split,
  term for term; and either both builders raise or neither does.

The views put a different first check in front: Example 6's chain with
``W > Z`` (which raises on mixed types), an aliased self-join over three
operands (two occurrences of one relation, never probed), a ``Const``
comparison that raises before an equality, and an ``Or`` / ``Not``
conjunct; a catalog class with sharing on keeps one index for the
queries one algorithm holds for two members.  Values are ``None`` / ``'a'`` / ``1`` / ``1.0`` /
``True``, so ``1 == 1.0 == True`` share a bucket.  One index lives
through a whole script: answers retire the oldest query, and a mid-UQS
codec round trip, after which the index is built anew, is one of the
drawn steps.  Query ids come from one counter, as an algorithm's do: an
id is never issued twice, even after the UQS empties.

The last test is the counting gate on ``bench/``'s ``eca_storm`` shape.
"""

import json
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_builder import (
    built_and_split,
    built_by_probe,
    compensate_by_scan,
    probed_equality,
)
from repro.core import eca
from repro.core.compensation import ProbeIndex, split
from repro.core.eca import ECA
from repro.costmodel.parameters import PaperParameters
from repro.durability.codec import decode_value, dumps_algorithm, encode_text, loads_algorithm
from repro.errors import UpdateError
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.conditions import And, Comparison, Const, Not, Or, attr
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import run_concurrent
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.example6 import build_example6

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))
E1, E2 = R2.aliased("e1"), R2.aliased("e2")
SCHEMAS = [R1, R2, R3]


def chain(name):
    return View.natural_join(name, SCHEMAS, ["W", "Z"])


VIEWS = [
    View.natural_join(
        "example6", SCHEMAS, ["W", "Z"], Comparison(attr("W"), ">", attr("Z"))
    ),
    View(
        "selfjoin",
        [R1, E1, E2],
        ["W", "e2.Y"],
        And(
            Comparison(attr("r1.X"), "=", attr("e1.X")),
            Comparison(attr("e1.Y"), "=", attr("e2.X")),
        ),
    ),
    View(
        "const_first",
        SCHEMAS,
        ["W", "Z"],
        And(
            Comparison(attr("r2.Y"), ">", Const(3)),
            Comparison(attr("r1.X"), "=", attr("r2.X")),
            Comparison(attr("r2.Y"), "=", attr("r3.Y")),
        ),
    ),
    View(
        "ornot_first",
        SCHEMAS,
        ["W", "Z"],
        And(
            Or(
                Comparison(attr("W"), "<", attr("r2.Y")),
                Not(Comparison(attr("r1.X"), "!=", attr("r2.X"))),
            ),
            Comparison(attr("r1.X"), "=", attr("r2.X")),
            Comparison(attr("r2.Y"), "=", attr("r3.Y")),
        ),
    ),
]

values = st.sampled_from([None, "a", 1, 1.0, True])
updates = st.builds(
    lambda relation, row, is_insert: (insert if is_insert else delete)(relation, row),
    st.sampled_from(["r1", "r2", "r3"]),
    st.tuples(values, values),
    st.booleans(),
)
steps = st.one_of(
    updates,
    updates,
    st.just("answer"),
    st.just("recover"),
)


def outcome(call):
    try:
        return call()
    except TypeError:
        return TypeError


def assert_probe_is_scan_split(ours, view, update, pending):
    """``ours``, the probing builder's outcome for ``update`` over
    ``pending``, against the scan-all builder's, split."""
    theirs = outcome(
        lambda: built_and_split(compensate_by_scan, view, update, pending)
    )
    if ours is TypeError or theirs is TypeError:
        assert ours is theirs
        return
    query, delta, remote = ours
    scanned, delta_ref, remote_ref = theirs
    assert query.terms == built_by_probe(view, update, pending).terms
    assert split(query)[0].terms == split(scanned)[0].terms
    assert delta == delta_ref
    assert remote.terms == remote_ref.terms


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(VIEWS), st.lists(steps, min_size=1, max_size=14))
def test_the_probe_builds_what_the_scan_splits_to(view, script):
    uqs = {}
    pending = ProbeIndex(uqs)
    issued = 0
    for step in script:
        if step == "answer":
            if uqs:
                oldest = next(iter(uqs))
                del uqs[oldest]
                pending.retire(oldest)
        elif step == "recover":
            uqs = {
                query_id: decode_value(json.loads(encode_text(query)))
                for query_id, query in uqs.items()
            }
            pending = ProbeIndex(uqs)
        elif view.involves(step.relation):
            ours = outcome(
                lambda: built_and_split(eca._compensate_update, view, step, pending)
            )
            assert_probe_is_scan_split(ours, view, step, pending)
            if ours is not TypeError and not ours[2].is_empty():
                issued += 1
                uqs[issued] = ours[2]


@settings(max_examples=120, deadline=None)
@given(st.lists(steps, min_size=1, max_size=14))
def test_a_shared_class_builds_what_the_scan_splits_to(script):
    """Two equally defined views, sharing on, are one ECA: one probe
    index covers the queries that algorithm holds for both and is probed
    again at every later update, and what the catalog ships is the remote
    part of a build over a fresh index of the same UQS.  Updates run at a
    source first (a delete of an absent row is skipped), and each answer
    is the source's, in FIFO order."""
    catalog = WarehouseCatalog(
        {name: ECA(chain(name)) for name in ("V0", "V1")}, share_compensation=True
    )
    source = MemorySource(SCHEMAS)
    in_flight = deque()
    for serial, step in enumerate(script, start=1):
        if step == "answer":
            if in_flight:
                request = in_flight.popleft()
                answer = source.evaluate(request.query)
                catalog.on_answer("source", QueryAnswer(request.query_id, answer))
        elif step == "recover":
            catalog = loads_algorithm(dumps_algorithm(catalog))
        else:
            try:
                source.apply_update(step)
            except UpdateError:
                continue
            ((member, names),) = catalog.classes()
            assert names == ("V0", "V1")
            before = ProbeIndex(dict(member.uqs))
            routed = catalog.on_update("source", UpdateNotification(step, serial))
            in_flight.extend(request for _, request in routed)
            ours = built_and_split(eca._compensate_update, member.view, step, before)
            assert [request.query for _, request in routed] == (
                [] if ours[2].is_empty() else [ours[2]]
            )
            assert_probe_is_scan_split(ours, member.view, step, before)


def test_the_storm_builds_few_terms_and_ships_what_the_scan_ships(monkeypatch):
    """The counting gate, on ``bench/``'s ``eca_storm`` shape (Example 6,
    C = 100, k = 96, ``max_burst`` 8, seed 1).  The scan-all builder
    derives 8 188 terms there, of which 653 are kept.  The probing one
    ships and evaluates the very same terms, and derives no more than
    those plus the terms its index cannot file (first check not an
    equality with the update's tuple) — it cannot have turned back into
    a scan that still passes every equality test."""
    built = {}
    for name, builder in (("scan", compensate_by_scan), ("probe", eca._compensate_update)):
        builds = built[name] = []

        def recording(view, update, pending, builder=builder, builds=builds):
            query = builder(view, update, pending)
            builds.append((update, view.substitute(update.relation, update.signed_tuple()), query))
            return query

        monkeypatch.setattr(eca, "_compensate_update", recording)
        setup = build_example6(PaperParameters(cardinality=100), k=96, seed=1)
        source = MemorySource(setup.schemas, setup.initial)
        algorithm = ECA(setup.view, evaluate_view(setup.view, source.snapshot()))
        run_concurrent(
            source, algorithm, setup.workload, seed=0, record_trace=False, max_burst=8
        )
        assert algorithm.view_state() == evaluate_view(setup.view, source.snapshot())
    assert len(built["scan"]) == len(built["probe"]) == 96
    assert sum(query.term_count() for _, _, query in built["scan"]) == 8188
    derived = shipped = local = fallback = 0
    for (update, _, scanned), (_, head, query) in zip(built["scan"], built["probe"]):
        ours, theirs = split(query), split(scanned)
        assert ours[0].terms == theirs[0].terms and ours[1].terms == theirs[1].terms
        derived += query.term_count()
        local += ours[0].term_count()
        shipped += ours[1].term_count()
        fallback += sum(
            probed_equality(term, update.relation) is None
            for term in query.terms[head.term_count() :]
        )
    assert shipped + local == 653
    assert derived <= shipped + local + fallback, (derived, shipped, local, fallback)
