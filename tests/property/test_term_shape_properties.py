"""Property tests: a derived term is the term the constructor would build.

``Term.negate``, ``Term.substitute_update`` and ``Query.substitute`` hand
out terms that share the :class:`TermShape` of the term they came from
instead of going through ``Term(...)`` again.  That is only an
optimisation if nobody can tell: every term reached by any chain of
``substitute`` / ``-`` / ``+`` / unary ``-`` must be indistinguishable
from the one the pre-shape algorithm produced, which built every term
through the public, validating constructor.  That algorithm is kept here
as the reference (``reference_substitute`` / ``reference_negate``).
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.codec import canonical_json, encode_value
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison, Const, Not, Or, conjunction
from repro.relational.engine import evaluate_term, evaluate_term_scalar
from repro.relational.expressions import BoundOperand, Query, RelationOperand, Term
from repro.relational.schema import RelationSchema
from repro.relational.signature import term_signature
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.views import View

R1 = RelationSchema("r1", ("W", "X"))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))

#: Operand lists to draw a view from: plain joins, an aliased self-join,
#: and a self-join beside a second relation.
OPERAND_LISTS = [
    [R1, R2],
    [R1, R2, R3],
    [R1.aliased("a"), R1.aliased("b")],
    [R1, R1.aliased("twin"), R2],
]

values = st.integers(0, 2)
rows2 = st.tuples(values, values)


def qualified(schemas):
    return [f"{s.name}.{a}" for s in schemas for a in s.attributes]


@st.composite
def views(draw):
    schemas = draw(st.sampled_from(OPERAND_LISTS))
    names = qualified(schemas)
    projection = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    comparison = st.builds(
        Comparison,
        st.sampled_from(names).map(Attr),
        st.sampled_from(["=", "<=", "!="]),
        st.one_of(st.sampled_from(names).map(Attr), values.map(Const)),
    )
    conjunct = st.one_of(
        comparison,
        st.builds(Or, comparison, comparison),
        st.builds(Not, comparison),
    )
    condition = conjunction(draw(st.lists(conjunct, max_size=3)))
    return View("V", schemas, projection, condition)


#: One step of a chain: ``(kind, stored relation, row, sign)``.
steps = st.lists(
    st.tuples(
        st.sampled_from(["substitute", "compensate", "add", "negate"]),
        st.sampled_from(["r1", "r2", "r3"]),
        rows2,
        st.sampled_from([PLUS, MINUS]),
    ),
    min_size=1,
    max_size=5,
)


def reference_negate(term):
    return Term(term.operands, term.projection, term.condition, -term.coefficient)


def reference_substitute(query, relation, signed_tuple):
    """``Q<U>`` with every term built by ``Term(...)`` (the old algorithm)."""
    out = []
    for term in query.terms:
        free = [
            i
            for i, op in enumerate(term.operands)
            if op.source_relation == relation and not op.is_bound
        ]
        for size in range(1, len(free) + 1):
            flip = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(free, size):
                operands = list(term.operands)
                for index in subset:
                    operands[index] = BoundOperand(
                        term.operands[index].schema, signed_tuple
                    )
                out.append(
                    Term(
                        operands,
                        term.projection,
                        term.condition,
                        term.coefficient * flip,
                    )
                )
    return Query(out)


def reference_terms(query):
    """Each term once more from nothing but its public parts."""
    return [
        Term(
            [
                BoundOperand(op.schema, SignedTuple(op.tuple.values, op.tuple.sign))
                if op.is_bound
                else RelationOperand(op.schema)
                for op in term.operands
            ],
            list(term.projection),
            term.condition,
            term.coefficient,
        )
        for term in query.terms
    ]


def assert_indistinguishable(term, reference, state):
    assert term == reference and reference == term
    assert hash(term) == hash(reference)
    assert repr(term) == repr(reference)
    assert term_signature(term) == term_signature(reference)
    assert canonical_json(encode_value(term)) == canonical_json(
        encode_value(reference)
    )
    expected = reference.evaluate(state)
    assert term.evaluate(state) == expected
    assert evaluate_term(term, state) == expected
    assert evaluate_term_scalar(term, state) == expected


@settings(max_examples=120, deadline=None)
@given(views(), steps, st.lists(rows2, max_size=4), st.lists(rows2, max_size=4))
def test_derived_terms_equal_constructed_terms(view, chain, rows_a, rows_b):
    state = {
        "r1": SignedBag.from_rows(rows_a),
        "r2": SignedBag.from_rows(rows_b),
        "r3": SignedBag.from_rows(rows_a[:2] + rows_b[:2]),
    }
    query = reference = view.as_query()
    for kind, relation, row, sign in chain:
        signed = SignedTuple(row, sign)
        if kind == "negate":
            query = -query
            reference = Query(reference_negate(t) for t in reference.terms)
        else:
            delta = query.substitute(relation, signed)
            expected = reference_substitute(reference, relation, signed)
            if kind == "substitute":
                query, reference = delta, expected
            elif kind == "add":
                query = query + delta
                reference = Query(reference.terms + expected.terms)
            else:  # ECA's Q - Q<U>
                query = query - delta
                reference = Query(
                    reference.terms
                    + tuple(reference_negate(t) for t in expected.terms)
                )
        assert len(query.terms) == len(reference.terms)
        for term, built, rebuilt in zip(
            query.terms, reference.terms, reference_terms(query)
        ):
            assert term.shape is view.as_query().terms[0].shape
            assert_indistinguishable(term, built, state)
            assert_indistinguishable(term, rebuilt, state)
        assert query == reference and hash(query) == hash(reference)
