"""Property tests: the two leaves the codec's text path spells itself.

**Bound operands.**  A term row's bindings are spliced from each bound
operand's own rendering (``BoundOperand.encoded``), and ``Q<U>`` binds
one operand object per updated schema that every later compensating
query keeps — so one rendering serves many terms of many queries.
Queries built the way ECA builds them (``V<U> - sum Q_i<U>`` over a
growing UQS, by chains of ``Query.substitute``) must encode to exactly
``canonical_json(encode_value(query))``: with every memo empty, with
the operands' memos filled by earlier queries, and for a decoded twin
and what is derived from it.

**Scalars.**  ``canonical_json`` spells an exact ``int`` or ``str``
without the encoder.  It must spell them as ``json.dumps`` does, for
the values where a hand-rolled spelling would differ: negative and huge
ints, bools, and strings that need escaping.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.codec import (
    canonical_json,
    decode_value,
    encode_text,
    encode_value,
)
from repro.relational.conditions import Attr, Comparison, Const, conjunction
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.views import View

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))

#: Example 6's shape (three relations, so a compensating term keeps free
#: operands) and an aliased self-join (a tuple bound at two operands).
VIEWS = [
    View(
        "V",
        [R1, R2, R3],
        ["W", "Z"],
        conjunction(
            [
                Comparison(Attr("r1.X"), "=", Attr("r2.X")),
                Comparison(Attr("r2.Y"), "=", Attr("r3.Y")),
            ]
        ),
    ),
    View(
        "S",
        [R1.aliased("a"), R1.aliased("b"), R2],
        ["a.W", "Y"],
        conjunction(
            [
                Comparison(Attr("a.X"), "=", Attr("b.W")),
                Comparison(Attr("b.X"), "<=", Const(1)),
            ]
        ),
    ),
]

#: A cell of either kind the codec writes as it is, including the ones
#: that need spelling with care.
cells = st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=3))
updates = st.lists(
    st.tuples(
        st.sampled_from(["r1", "r2", "r3"]),
        st.tuples(cells, cells),
        st.sampled_from([PLUS, MINUS]),
    ),
    min_size=1,
    max_size=6,
)


def eca_queries(view, chain):
    """Every query an ECA warehouse would send for ``chain``, in order:
    for each update, ``V<U>`` less each pending query's ``Q<U>``."""
    base = view.as_query()
    sent = []
    for relation, row, sign in chain:
        if relation not in base.terms[0].shape.occurrences:
            continue
        update = SignedTuple(row, sign)
        query = base.substitute(relation, update)
        for pending in sent:
            query = query + pending.substitute(relation, update, -1)
        sent.append(query)
    return sent


def bound_operands(query):
    return [op for term in query.terms for op in term.operands if op.is_bound]


def chill(query):
    """Empty the memos ``encode_text`` would read for ``query``."""
    query.encoded = None
    for operand in bound_operands(query):
        operand.encoded = None


def reference(query):
    return canonical_json(encode_value(query))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VIEWS), updates)
def test_bindings_spliced_from_shared_operands_are_the_encoders_bytes(view, chain):
    sent = eca_queries(view, chain)
    expected = [reference(query) for query in sent]

    # Cold: nothing rendered before.
    for query, text in zip(sent, expected):
        chill(query)
        assert encode_text(query) == text

    # Warm: each operand rendered once, by whichever query reached it first.
    for query in sent:
        chill(query)
    for query, text in zip(sent, expected):
        assert encode_text(query) == text
    for query in sent:
        for operand in bound_operands(query):
            assert operand.encoded == canonical_json(encode_value(operand.tuple))

    # Decoded: a twin re-encodes to its bytes, cold and warm, and what is
    # derived from it encodes as what is derived from the original.
    for query, text in zip(sent, expected):
        twin = decode_value(json.loads(text))
        assert twin == query
        assert encode_text(twin) == text
        twin.encoded = None
        assert encode_text(twin) == text == reference(twin)
        relation, row, sign = chain[-1]
        if relation in query.terms[0].shape.occurrences:
            update = SignedTuple(row, sign)
            derived = twin.substitute(relation, update, -1)
            original = query.substitute(relation, update, -1)
            assert encode_text(derived) == reference(original)


def test_one_update_tuple_is_one_operand_object_across_terms_and_queries():
    view = VIEWS[0]
    chain = [("r1", (1, 2), PLUS), ("r2", (2, 3), PLUS), ("r3", (3, 4), MINUS)]
    sent = eca_queries(view, chain)
    first = [op for op in bound_operands(sent[0]) if op.name == "r1"]
    later = [op for q in sent[1:] for op in bound_operands(q) if op.name == "r1"]
    assert len(later) > 1
    assert {id(op) for op in later} == {id(first[0])}
    for query in sent:
        chill(query)
    encode_text(sent[-1])
    assert first[0].encoded == canonical_json(encode_value(first[0].tuple))


# --------------------------------------------------------------------- #
# Scalars the text path spells itself
# --------------------------------------------------------------------- #

#: Characters a JSON string must escape, or may only write as \\u escapes.
awkward = st.sampled_from('"\\/\x00\x01\x08\t\n\x0c\r\x1f\x7f\x80é ￿\U0001f600')
strings = st.text(alphabet=st.one_of(awkward, st.characters()), max_size=8)
ints = st.one_of(
    st.integers(),
    st.integers(max_value=-1),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)


def dumps(value):
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(st.one_of(ints, st.booleans(), strings))
def test_a_scalar_is_spelled_as_json_dumps_spells_it(value):
    assert canonical_json(value) == dumps(value)


def test_the_scalars_named_are_spelled_as_json_dumps_spells_them():
    named = [-1, 0, 2**64, 2**64 + 1, -(2**64) - 1, 10**40, True, False]
    named += ['"', "\\", "\x00\x1f\x7f", "é€😀", 'a"b\\c\nd']
    for value in named:
        assert canonical_json(value) == dumps(value)
