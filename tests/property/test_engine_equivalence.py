"""Property tests: the three evaluators agree on all inputs.

Reference cross-product evaluation (Term.evaluate), the hash-join engine,
and the SQLite source must compute identical answers for identical states
— this is what lets the rest of the suite trust any one of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UpdateError
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.engine import evaluate_query, term_classes
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.source.updates import delete, insert

SCHEMAS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
    RelationSchema("r3", ("Y", "Z")),
]

rows2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
relation = st.lists(rows2, max_size=5)

#: ``None`` is a value like any other to ``=`` and ``!=`` (Python's ``==``
#: in memory, ``IS`` in SQL), so the join columns X and Y may hold it.  W
#: and Z are compared with ``>``, which orders no ``None`` in Python and
#: is never true of a NULL in SQL: they stay integers.
joinable = st.one_of(st.none(), st.integers(0, 2))
ROWS = {
    "r1": st.tuples(st.integers(0, 3), joinable),
    "r2": st.tuples(joinable, joinable),
    "r3": st.tuples(joinable, st.integers(0, 3)),
}


def states():
    return st.fixed_dictionaries(
        {"r1": relation, "r2": relation, "r3": relation}
    )


def null_states():
    return st.fixed_dictionaries(
        {name: st.lists(rows, max_size=5) for name, rows in ROWS.items()}
    )


def null_updates():
    return st.sampled_from(sorted(ROWS)).flatmap(
        lambda name: st.builds(
            lambda row, sign: (name, SignedTuple(row, sign)),
            ROWS[name],
            st.sampled_from([PLUS, MINUS]),
        )
    )


def make_view(with_condition):
    extra = Comparison(Attr("W"), ">", Attr("Z")) if with_condition else None
    return View.natural_join("V", SCHEMAS, ["W", "Z"], extra)


def to_bags(state):
    return {name: SignedBag.from_rows(rows) for name, rows in state.items()}


@settings(max_examples=40, deadline=None)
@given(states(), st.booleans())
def test_engine_matches_reference_on_full_view(state, with_condition):
    view = make_view(with_condition)
    bags = to_bags(state)
    query = view.as_query()
    assert evaluate_query(query, bags) == query.evaluate(bags)


@settings(max_examples=40, deadline=None)
@given(
    states(),
    st.sampled_from(["r1", "r2", "r3"]),
    rows2,
    st.sampled_from([PLUS, MINUS]),
)
def test_engine_matches_reference_on_bound_queries(state, relation_name, row, sign):
    view = make_view(True)
    bags = to_bags(state)
    query = view.substitute(relation_name, SignedTuple(row, sign))
    assert evaluate_query(query, bags) == query.evaluate(bags)


@settings(max_examples=25, deadline=None)
@given(states(), st.sampled_from(["r1", "r2", "r3"]), rows2)
def test_sqlite_matches_reference(state, relation_name, row):
    view = make_view(True)
    bags = to_bags(state)
    query = view.substitute(relation_name, SignedTuple(row)) - view.as_query()
    with SQLiteSource(SCHEMAS, state) as source:
        sqlite_answer = source.evaluate(query)
    assert sqlite_answer == query.evaluate(bags)


@settings(max_examples=25, deadline=None)
@given(states())
def test_sqlite_matches_reference_on_full_view(state):
    view = make_view(False)
    bags = to_bags(state)
    with SQLiteSource(SCHEMAS, state) as source:
        assert source.evaluate(view.as_query()) == view.evaluate(bags)


@settings(max_examples=30, deadline=None)
@given(states(), rows2, rows2)
def test_multi_term_signed_queries_agree(state, row_a, row_b):
    """Compensated-query shapes: V<U_a> - (V<U_a>)<U_b> across evaluators."""
    view = make_view(True)
    bags = to_bags(state)
    first = view.substitute("r1", SignedTuple(row_a))
    query = first - first.substitute("r2", SignedTuple(row_b, MINUS))
    engine = evaluate_query(query, bags)
    reference = query.evaluate(bags)
    with SQLiteSource(SCHEMAS, state) as source:
        sqlite_answer = source.evaluate(query)
    assert engine == reference == sqlite_answer


@settings(max_examples=60, deadline=None)
@given(null_states(), st.lists(null_updates(), min_size=2, max_size=7), st.booleans())
def test_compensating_queries_agree_across_evaluators(state, updates, with_condition):
    """A storm's ``Q_i = V<U_i> - sum_j Q_j<U_i>`` — many terms, few
    (shape, bound mask) classes, ``None`` among the joined values — through
    the reference, the grouped engine and SQLite's one-statement-per-class
    rendering, whole and split the way the warehouse splits it."""
    view = make_view(with_condition)
    bags = to_bags(state)
    pending = []
    with SQLiteSource(SCHEMAS, state) as source:
        for relation_name, signed in updates:
            terms = list(view.substitute(relation_name, signed).terms)
            for earlier in pending:
                terms.extend(earlier.substitute(relation_name, signed, -1).terms)
            query = Query(terms)
            local, remote = query.partition()
            for part in (query, local, remote):
                reference = part.evaluate(bags)
                assert evaluate_query(part, bags) == reference
                assert source.evaluate(part) == reference
            pending.append(remote)


#: Terms in the class that must span two statements: binding r2 (two
#: attributes) gives a ``VALUES`` row of three parameters, so 333 rows fit
#: in one 999-parameter chunk.
CHUNKED_CLASS = 400


def bound_masks():
    """Every subset of the view's three relations, the empty one included."""
    names = [schema.name for schema in SCHEMAS]
    return [
        tuple(name for bit, name in enumerate(names) if mask >> bit & 1)
        for mask in range(1 << len(names))
    ]


def signed_rows():
    return {
        name: st.builds(SignedTuple, rows, st.sampled_from([PLUS, MINUS]))
        for name, rows in ROWS.items()
    }


def expected_selects(query):
    """One ``SELECT`` per (shape, bound mask) class per chunk: a class's
    ``VALUES`` row is its bound tuples' values plus one weight, and a
    statement holds at most 999 parameters (the views here render no
    constant into their ``WHERE`` clause)."""
    count = 0
    for _, members in term_classes(query.terms).items():
        width = 1 + sum(
            len(op.tuple.values) for op in members[0].operands if op.is_bound
        )
        per_chunk = 999 // width
        count += -(-len(members) // per_chunk)
    return count


@settings(max_examples=25, deadline=None)
@given(
    null_states(),
    st.fixed_dictionaries(signed_rows()),
    st.lists(st.sampled_from([1, -1]), min_size=2, max_size=6),
    st.lists(st.sampled_from([PLUS, MINUS]), min_size=1, max_size=7),
    st.booleans(),
)
def test_sqlite_sends_every_class_as_one_statement(
    state, bindings, coefficients, signs, with_condition
):
    """Every class — of one term under each bound mask, of several terms
    without a bound operand whose coefficients add or cancel, and of more
    terms than one 999-parameter chunk holds, with ``None`` among the
    values — is one ``VALUES`` statement per chunk, and the answer is the
    memory source's and the reference evaluator's."""
    view = make_view(with_condition)
    singles = []
    for mask in bound_masks():
        query = view.as_query()
        for name in mask:
            query = query.substitute(name, bindings[name])
        singles.append(query)
    free_view = make_view(not with_condition)
    free_terms = []
    for coefficient in coefficients:
        whole = free_view.as_query()
        free_terms.extend((whole if coefficient > 0 else -whole).terms)
    free = Query(free_terms)
    x, y = bindings["r2"].values
    xs = (x, 0, 1, None)
    chunked_terms = []
    for n in range(CHUNKED_CLASS):
        signed = SignedTuple((xs[n % len(xs)], y), signs[n % len(signs)])
        chunked_terms.extend(view.substitute("r2", signed).terms)
    chunked = Query(chunked_terms)
    queries = singles + [free, chunked, Query([t for q in singles for t in q.terms])]
    queries.append(Query(queries[-1].terms + free.terms + chunked.terms))

    bags = to_bags(state)
    memory = MemorySource(SCHEMAS, state)
    statements = []
    with SQLiteSource(SCHEMAS, state) as source:
        source._conn.set_trace_callback(statements.append)
        for query in queries:
            del statements[:]
            answer = source.evaluate(query)
            selects = [sql for sql in statements if sql.lstrip().startswith("SELECT")]
            assert len(selects) == expected_selects(query)
            assert answer == memory.evaluate(query) == query.evaluate(bags)
    assert len(term_classes(free.terms)) == 1
    assert expected_selects(chunked) == 2


@settings(max_examples=40, deadline=None)
@given(
    null_states(),
    st.lists(
        st.tuples(st.booleans(), null_updates()), min_size=1, max_size=8
    ),
)
def test_sources_apply_the_same_updates(state, operations):
    """Inserts and deletes — of rows holding ``None`` too — leave both
    sources in the same state, and a delete fails on both or on neither."""
    memory = MemorySource(SCHEMAS, state)
    with SQLiteSource(SCHEMAS, state) as sqlite:
        for is_insert, (relation_name, signed) in operations:
            update = (insert if is_insert else delete)(relation_name, signed.values)
            outcomes = []
            for source in (memory, sqlite):
                try:
                    source.apply_update(update)
                    outcomes.append("applied")
                except UpdateError:
                    outcomes.append("absent")
            assert outcomes[0] == outcomes[1]
        assert memory.snapshot() == sqlite.snapshot()


class TestExample6AtScale:
    """The evaluators agree, and answer non-trivially, on Example 6's
    generated data at Table 1's sizes and beyond."""

    @staticmethod
    def example6(cardinality):
        from repro.costmodel.parameters import PaperParameters
        from repro.workloads.example6 import build_example6

        return build_example6(PaperParameters(cardinality=cardinality), k=0, seed=1)

    def test_the_engine_answers_every_cardinality(self):
        from repro.relational.engine import evaluate_view

        for cardinality in (50, 100, 200, 400):
            setup = self.example6(cardinality)
            state = MemorySource(setup.schemas, setup.initial).snapshot()
            assert evaluate_view(setup.view, state).total_count() > 0, cardinality
        setup = self.example6(200)
        query = setup.view.substitute("r2", SignedTuple((3, 7)))
        source = MemorySource(setup.schemas, setup.initial)
        assert source.evaluate(query).is_nonnegative()

    def test_the_reference_cross_product_agrees_with_the_engine(self):
        from repro.costmodel.parameters import PaperParameters
        from repro.relational.engine import evaluate_view
        from repro.workloads.example6 import build_example6

        setup = self.example6(60)
        state = MemorySource(setup.schemas, setup.initial).snapshot()
        assert setup.view.as_query().evaluate(state) == evaluate_view(
            setup.view, state
        )
        setup = build_example6(PaperParameters(), k=0, seed=7)
        query = setup.view.as_query()
        state = MemorySource(setup.schemas, setup.initial).snapshot()
        assert not evaluate_query(query, state).is_empty()
        small = {
            name: SignedBag.from_rows(rows[:20])
            for name, rows in setup.initial.items()
        }
        assert query.evaluate(small) == evaluate_query(query, small)

    def test_sqlite_answers_what_memory_answers(self):
        setup = self.example6(100)
        source = SQLiteSource(setup.schemas, setup.initial)
        try:
            memory = MemorySource(setup.schemas, setup.initial)
            full = setup.view.as_query()
            assert source.evaluate(full) == memory.evaluate(full)
            delta = setup.view.substitute("r1", SignedTuple((500, 3)))
            assert source.evaluate(delta).is_nonnegative()
        finally:
            source.close()


#: Updates in the divergence sweep's storm: enough that tuples of different
#: terms of one class share join values, so a grouped pass that let them
#: meet would answer differently from the per-term oracle.
STORM_K = 24


def test_the_batched_engine_matches_the_scalar_oracle_on_example_6():
    """The columnar engine earns its speedup only if it computes exactly
    what the row-at-a-time plan computes.  On Example 6's own data —
    states before and after each update, plus every substituted delta
    query — ``evaluate_query`` and ``evaluate_query_scalar`` must agree
    bag for bag.

    Those are single-term queries, which never reach the grouped pass, so
    the sweep goes on to a storm over the final state: no answer arrives,
    every ``Q_i = V<U_i> - sum_j Q_j<U_i>`` is built against all earlier
    pending queries and checked whole, and split the way the warehouse
    splits it (fully bound part on an empty state, the rest at the
    source).  All seven bound masks of three relations must occur, and
    each mask with two or more bound operands as a class of several terms.

    Every query is also evaluated through the *live* ``MemorySource``,
    whose kept batches and bucket maps the preceding updates maintained
    in place: it must equal the scalar oracle on the current state too.
    """
    from repro.costmodel.parameters import PaperParameters
    from repro.relational.engine import evaluate_query_scalar, term_classes
    from repro.workloads.example6 import build_example6

    params = PaperParameters()
    checked = 0
    masks = set()
    grouped = set()
    for seed in (0, 4):
        setup = build_example6(params, 6, seed)
        source = MemorySource(setup.schemas, setup.initial)
        view_query = setup.view.as_query()
        for update in setup.workload:
            state = source.snapshot()
            delta = setup.view.substitute(update.relation, update.signed_tuple())
            for query in (view_query, delta):
                expected = evaluate_query_scalar(query, state)
                assert evaluate_query(query, state) == expected
                assert source.evaluate(query) == expected
                checked += 1
            source.apply_update(update)
        final = source.snapshot()
        expected = evaluate_query_scalar(view_query, final)
        assert evaluate_query(view_query, final) == expected
        assert source.evaluate(view_query) == expected
        checked += 1
        pending = []
        for update in build_example6(params, STORM_K, seed).workload:
            signed = update.signed_tuple()
            terms = list(setup.view.substitute(update.relation, signed).terms)
            for earlier in pending:
                terms.extend(earlier.substitute(update.relation, signed, -1).terms)
            query = Query(terms)
            local, remote = query.partition()
            for part, state in ((query, final), (local, {}), (remote, final)):
                expected = evaluate_query_scalar(part, final)
                assert evaluate_query(part, state) == expected
                assert source.evaluate(part) == expected
                checked += 1
            for (_, mask), members in term_classes(query.terms).items():
                masks.add(mask)
                if len(members) > 1:
                    grouped.add(mask)
            pending.append(remote)
    assert checked == 2 * (6 * 2 + 1 + STORM_K * 3)
    assert len(masks) == 7
    assert grouped == {mask for mask in masks if sum(mask) >= 2}
