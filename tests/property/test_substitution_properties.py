"""Property tests for the substitution operator — Lemma B.2 in particular.

Lemma B.2 is the engine of the whole correctness proof:

    Q[ss_{j-1}] = Q[ss_j] - Q<U_j>[ss_j]   for any query Q

i.e. the effect of an update on any query is exactly the substituted
query, evaluated on the post-update state.  We check it for random
states, random updates (inserts and deletes), and query shapes up to the
compensated forms ECA actually emits.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference_builder import probe_drops
from repro.core.compensation import backdate
from repro.core.eca import ECA
from repro.messaging.messages import UpdateNotification
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.views import View
from repro.source.updates import delete, insert

SCHEMAS = [
    RelationSchema("r1", ("W", "X")),
    RelationSchema("r2", ("X", "Y")),
]

rows2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
relation = st.lists(rows2, max_size=5)
states = st.fixed_dictionaries({"r1": relation, "r2": relation})


def make_view():
    return View.natural_join(
        "V", SCHEMAS, ["W", "Y"], Comparison(Attr("W"), "<=", Attr("Y"))
    )


def apply_update(bags, update):
    after = {name: bag.copy() for name, bag in bags.items()}
    after[update.relation].add(update.values, update.sign)
    return after


def to_bags(state):
    return {name: SignedBag.from_rows(rows) for name, rows in state.items()}


def updates():
    return st.builds(
        lambda rel, row, is_insert: (insert if is_insert else delete)(rel, row),
        st.sampled_from(["r1", "r2"]),
        rows2,
        st.booleans(),
    )


@settings(max_examples=80, deadline=None)
@given(states, updates())
def test_lemma_b2_for_the_view_query(state, update):
    """V[ss_{j-1}] = V[ss_j] - V<U_j>[ss_j]."""
    view = make_view()
    before = to_bags(state)
    if update.is_delete:
        assume(before[update.relation].multiplicity(update.values) > 0)
    after = apply_update(before, update)
    query = view.as_query()
    substituted = view.substitute(update.relation, update.signed_tuple())
    assert query.evaluate(before) == query.evaluate(after) - substituted.evaluate(
        after
    )


@settings(max_examples=80, deadline=None)
@given(states, updates(), rows2, st.sampled_from([PLUS, MINUS]))
def test_lemma_b2_for_bound_queries(state, update, bound_row, sign):
    """The lemma holds for already-substituted (compensating) queries."""
    view = make_view()
    before = to_bags(state)
    if update.is_delete:
        assume(before[update.relation].multiplicity(update.values) > 0)
    after = apply_update(before, update)
    other = "r2" if update.relation == "r1" else "r1"
    query = view.substitute(other, SignedTuple(bound_row, sign))
    substituted = query.substitute(update.relation, update.signed_tuple())
    assert query.evaluate(before) == query.evaluate(after) - substituted.evaluate(
        after
    )


def updates_on(bags):
    """An insert of any row, or a delete of a row ``bags`` holds — drawn
    from what is there, so no draw is thrown away."""
    inserts = st.builds(insert, st.sampled_from(["r1", "r2"]), rows2)
    present = [
        delete(name, row)
        for name, bag in sorted(bags.items())
        for row in sorted(bag.rows())
    ]
    return st.one_of(inserts, st.sampled_from(present)) if present else inserts


@settings(max_examples=60, deadline=None)
@given(states, st.data())
def test_lemma_b2_composes_over_two_updates(state, data):
    """Q[ss_0] = Q[ss_2] - Q<U2>[ss_2] - Q<U1>[ss_2] + Q<U1,U2>[ss_2] —
    the expansion LCA's backdating and ECA's chained compensation rely
    on."""
    view = make_view()
    s0 = to_bags(state)
    u1 = data.draw(updates_on(s0), label="u1")
    s1 = apply_update(s0, u1)
    u2 = data.draw(updates_on(s1), label="u2")
    s2 = apply_update(s1, u2)
    q = view.as_query()
    q1 = q.substitute(u1.relation, u1.signed_tuple())
    q2 = q.substitute(u2.relation, u2.signed_tuple())
    q12 = q1.substitute(u2.relation, u2.signed_tuple())
    expanded = (
        q.evaluate(s2) - q2.evaluate(s2) - q1.evaluate(s2) + q12.evaluate(s2)
    )
    assert q.evaluate(s0) == expanded


@given(rows2, rows2)
def test_same_relation_double_substitution_vanishes(row_a, row_b):
    view = make_view()
    q = view.substitute("r1", SignedTuple(row_a))
    assert q.substitute("r1", SignedTuple(row_b)).is_empty()


@settings(max_examples=60, deadline=None)
@given(states, updates())
def test_substitution_distributes_over_query_sum(state, update):
    view = make_view()
    bags = to_bags(state)
    q = view.as_query()
    summed = (q + q).substitute(update.relation, update.signed_tuple())
    single = q.substitute(update.relation, update.signed_tuple())
    assert summed.evaluate(bags) == (single + single).evaluate(bags)


@settings(max_examples=60, deadline=None)
@given(states, updates())
def test_negation_commutes_with_substitution(state, update):
    view = make_view()
    bags = to_bags(state)
    q = view.as_query()
    a = (-q).substitute(update.relation, update.signed_tuple()).evaluate(bags)
    b = (-(q.substitute(update.relation, update.signed_tuple()))).evaluate(bags)
    assert a == b


# --------------------------------------------------------------------- #
# The one-pass compensation  -Q<U>  ==  the negated T<U>, term by term
# --------------------------------------------------------------------- #

_R3 = RelationSchema("r3", ("Y", "Z"))
_E1, _E2 = SCHEMAS[1].aliased("e1"), SCHEMAS[1].aliased("e2")
#: Views a pending query may mix: the two-relation join, a chain over
#: three relations (whose compensations interleave bound masks), and a
#: self-join over r2 whose substitution expands by inclusion-exclusion.
PENDING_VIEWS = [
    make_view(),
    View.natural_join("chain", SCHEMAS + [_R3], ["W", "Z"]),
    View("pairs", [_E1, _E2], ["e1.X", "e2.Y"], Comparison(Attr("e1.Y"), "=", Attr("e2.X"))),
]


def storm_updates():
    return st.builds(
        lambda rel, row, is_insert: (insert if is_insert else delete)(rel, row),
        st.sampled_from(["r1", "r2", "r3"]),
        rows2,
        st.booleans(),
    )


def compensation_by_terms(pending, update):
    """``-Q<U>`` spelled out with the per-term operator: the negated
    ``T<U>`` of every term that involves the relation, in term order."""
    out = []
    for term in pending.terms:
        if update.relation in term.source_relation_names:
            out.extend(
                t.negate()
                for t in term.substitute_update(update.relation, update.signed_tuple())
            )
    return out


@st.composite
def pending_queries(draw):
    """A query as a UQS holds them: a view's ``V<U>`` compensated against
    a few earlier updates, possibly summed with another view's."""
    total = Query()
    for view in draw(st.lists(st.sampled_from(PENDING_VIEWS), min_size=1, max_size=2)):
        first = draw(
            storm_updates().filter(lambda u, view=view: view.involves(u.relation))
        )
        query = view.substitute(first.relation, first.signed_tuple())
        for later in draw(st.lists(storm_updates(), max_size=4)):
            query = query - query.substitute(later.relation, later.signed_tuple())
        total = total + query
    return total


@settings(max_examples=150, deadline=None)
@given(pending_queries(), storm_updates())
def test_one_pass_compensation_is_the_subtraction_term_for_term(pending, update):
    """Same terms, same coefficients, same *order* — the order is what a
    frame, a WAL record and ``bytes_per_update`` are made of."""
    signed = update.signed_tuple()
    one_pass = pending.substitute(update.relation, signed, -1)
    assert list(one_pass.terms) == compensation_by_terms(pending, update)
    assert one_pass == Query() - pending.substitute(update.relation, signed)
    # No shape is rebuilt: that is what keeps like terms in one class.
    assert {id(t.shape) for t in one_pass.terms} <= {id(t.shape) for t in pending.terms}


class _RecordingECA(ECA):
    """ECA that keeps every query it builds, before the local/remote split."""

    def __init__(self, view):
        super().__init__(view)
        self.built = []

    def _dispatch(self, query):
        self.built.append(query)
        return super()._dispatch(query)


@settings(max_examples=60, deadline=None)
@given(st.lists(storm_updates(), min_size=2, max_size=8))
def test_eca_lists_v_of_u_then_each_pending_compensation_in_uqs_order(storm):
    """``Q_i`` is V<U_i>'s terms, then ``-Q_j<U_i>`` for each pending
    ``Q_j`` in UQS order, each in term order — never regrouped; less the
    terms whose first check, an equality with the update's tuple, fails,
    which are never built."""
    view = PENDING_VIEWS[1]
    algorithm = _RecordingECA(view)
    for serial, update in enumerate(storm, start=1):
        pending = algorithm.uqs_queries()
        algorithm.handle_update(UpdateNotification(update, serial))
        expected = list(
            view.as_query().terms[0].substitute_update(
                update.relation, update.signed_tuple()
            )
        )
        for earlier in pending:
            expected.extend(
                term
                for term in compensation_by_terms(earlier, update)
                if not probe_drops(term, update.relation)
            )
        assert list(algorithm.built[-1].terms) == expected


def _backdate_by_subtraction(query, later):
    """``backdate`` as it was written before the one-pass primitive."""
    if query.is_empty() or not later:
        return query
    head, rest = later[0], later[1:]
    substituted = Query(
        [t.negate() for t in compensation_by_terms(query, head)]
    )
    return _backdate_by_subtraction(query, rest) - _backdate_by_subtraction(
        substituted, rest
    )


@settings(max_examples=80, deadline=None)
@given(pending_queries(), st.lists(storm_updates(), max_size=3))
def test_backdate_lists_the_terms_the_subtraction_listed(pending, later):
    assert backdate(pending, later).terms == _backdate_by_subtraction(
        pending, later
    ).terms


@settings(max_examples=80, deadline=None)
@given(
    st.fixed_dictionaries({"r1": relation, "r2": relation, "r3": relation}),
    pending_queries(),
    storm_updates(),
)
def test_lemma_b2_through_the_one_pass_compensation(state, pending, update):
    """Q[ss_{j-1}] = Q[ss_j] + (-Q<U_j>)[ss_j] for pending-query shapes."""
    before = to_bags(state)
    if update.is_delete:
        assume(before[update.relation].multiplicity(update.values) > 0)
    after = apply_update(before, update)
    compensation = pending.substitute(update.relation, update.signed_tuple(), -1)
    assert pending.evaluate(before) == pending.evaluate(after) + compensation.evaluate(
        after
    )
