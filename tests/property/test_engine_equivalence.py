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
from repro.relational.engine import evaluate_query
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
