"""Property tests: the two places the codec's text is not a tree walk.

**The ``query`` form** (codec v4) names each distinct shape once and
writes a term as ``[shape index, coefficient, bindings]``.  Which
``TermShape`` *objects* a query's terms happen to share is an accident of
how it was built — derived terms share one, a decoded twin has its own,
a query summed from both has equal shapes under different objects — and
none of that may reach the bytes: the table is keyed by value.  Drawn
queries over SPJ views, aliased self-joins and ``UnionView`` branches,
pushed through ``substitute`` / negation / ``+`` and through a decode in
the middle, must round-trip, re-encode to the same bytes, agree with the
reference tree, and hold exactly one table entry per distinct layout.

**Rows** of a bag are tagged without a call per value when they are
tuples of JSON's own scalars, and read back the same way.  The
value-by-value path (``encode_value`` / ``decode_value``) stays the
definition; drawn bags with nested tuples, bools beside ints and negative
counts must give the same bytes and the same values either way.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.codec import (
    _contents_text,
    canonical_json,
    decode_value,
    encode_text,
    encode_value,
)
from repro.relational.bag import SignedBag
from repro.relational.conditions import Attr, Comparison, Const, conjunction
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, PLUS, SignedTuple
from repro.relational.unions import UnionView
from repro.relational.views import View
from repro.warehouse.state import MaterializedView

R1 = RelationSchema("r1", ("W", "X"), key=("W",))
R2 = RelationSchema("r2", ("X", "Y"))
R3 = RelationSchema("r3", ("Y", "Z"))

#: Plain joins, an aliased self-join, a self-join beside a second relation.
OPERAND_LISTS = [
    [R1, R2],
    [R1, R2, R3],
    [R1.aliased("a"), R1.aliased("b")],
    [R1, R1.aliased("twin"), R2],
]

values = st.integers(0, 2)
rows2 = st.tuples(values, values)


@st.composite
def spj_views(draw, width=None):
    """A view over one of a few operand lists with one of a few
    projections and conditions — few enough that two draws are often
    the same definition, built apart."""
    schemas = draw(st.sampled_from(OPERAND_LISTS))
    names = [f"{s.name}.{a}" for s in schemas for a in s.attributes]
    size = width if width is not None else draw(st.integers(1, 2))
    projection = draw(st.lists(st.sampled_from(names[:3]), min_size=size, max_size=size))
    comparisons = draw(
        st.lists(
            st.builds(
                Comparison,
                st.sampled_from(names[:2]).map(Attr),
                st.sampled_from(["=", "<="]),
                st.one_of(st.sampled_from(names[-2:]).map(Attr), values.map(Const)),
            ),
            max_size=2,
        )
    )
    return View("V", schemas, projection, conjunction(comparisons))


@st.composite
def definitions(draw):
    """An SPJ / self-join view, or a signed union of two such views."""
    if draw(st.booleans()):
        return draw(spj_views())
    branches = [
        (draw(st.sampled_from([1, -1])), draw(spj_views(width=1))) for _ in range(2)
    ]
    return UnionView("U", branches)


#: One step of a chain: ``(kind, stored relation, row, sign)``.
steps = st.lists(
    st.tuples(
        st.sampled_from(["substitute", "compensate", "add", "negate"]),
        st.sampled_from(["r1", "r2", "r3"]),
        rows2,
        st.sampled_from([PLUS, MINUS]),
    ),
    max_size=4,
)


def step(query, kind, relation, row, sign):
    if kind == "negate":
        return -query
    delta = query.substitute(relation, SignedTuple(row, sign))
    if kind == "substitute":
        # Keep something to encode when the relation is not in the query.
        return delta if delta.terms else query
    return query + delta if kind == "add" else query - delta


def layout(term):
    shape = term.shape
    return (shape.schemas, shape.projection, shape.condition)


def decode(text):
    return decode_value(json.loads(text))


def assert_form(query):
    """Everything the form promises about one query; returns its twin."""
    text = encode_text(query)
    assert text == canonical_json(encode_value(query))
    twin = decode(text)
    assert twin == query and query == twin and hash(twin) == hash(query)
    assert encode_text(twin) == text
    assert canonical_json(encode_value(twin)) == text

    data = json.loads(text)
    layouts = []
    for term in query.terms:
        if layout(term) not in layouts:
            layouts.append(layout(term))
    # One entry per distinct layout, in first-use order ...
    assert len(data["shapes"]) == len(layouts)
    assert [row[0] for row in data["terms"]] == [
        layouts.index(layout(term)) for term in query.terms
    ]
    # ... and decoded terms of one entry hold the same shape object.
    shape_of = {}
    for row, term in zip(data["terms"], twin.terms):
        assert shape_of.setdefault(row[0], term.shape) is term.shape
    assert len({id(shape) for shape in shape_of.values()}) == len(shape_of)
    return twin


@settings(max_examples=150, deadline=None)
@given(definitions(), definitions(), steps, steps)
def test_query_form_round_trips_whatever_shares_a_shape(first, second, chain, later):
    query = first.as_query()
    for kind, relation, row, sign in chain:
        query = step(query, kind, relation, row, sign)
    # Two definitions drawn apart: equal layouts, when they coincide,
    # arrive as different shape objects.
    query = query + second.as_query()
    twin = assert_form(query)

    # Carry on from the decoded twin and from the original alike, then
    # put decoded and fresh shape objects of equal layouts in one query.
    derived, expected = twin, query
    for kind, relation, row, sign in later:
        derived = step(derived, kind, relation, row, sign)
        expected = step(expected, kind, relation, row, sign)
    assert derived == expected
    assert encode_text(derived) == encode_text(expected)
    assert_form(derived)
    mixed, fresh = derived + query, expected + query
    assert {id(t.shape) for t in mixed.terms} != {id(t.shape) for t in fresh.terms}
    assert encode_text(mixed) == encode_text(fresh)
    assert_form(mixed)


# --------------------------------------------------------------------- #
# Rows in one pass
# --------------------------------------------------------------------- #


class Flag(int):
    """An ``int`` subclass: not one of JSON's scalars, exactly."""


scalars = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
plain_rows = st.lists(scalars, max_size=3).map(tuple)
nested_rows = st.lists(
    st.one_of(scalars, plain_rows, st.integers(0, 2).map(Flag)), max_size=3
).map(tuple)
counts = st.integers(-3, 3).filter(bool)
bags = st.dictionaries(st.one_of(plain_rows, nested_rows), counts, max_size=6).map(
    lambda contents: SignedBag.from_pairs(list(contents.items()))
)


def typed(value):
    """A value with the type of everything in it, so that ``1``, ``True``
    and ``1.0`` — equal, and equal as dictionary keys — are told apart."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return (type(value).__name__, value)


def reference_pairs(bag):
    """Every row out and back through the value-by-value path."""
    return [
        (decode(canonical_json(encode_value(row))), count)
        for row, count in bag.to_pairs()
    ]


@settings(max_examples=200, deadline=None)
@given(bags)
def test_rows_in_one_pass_equal_rows_value_by_value(bag):
    text = encode_text(bag)
    assert text == canonical_json(encode_value(bag))
    again = decode(text)
    assert again == bag
    # Equal is not enough: (1,) == (True,) == (1.0,).
    assert [(typed(row), count) for row, count in again.to_pairs()] == [
        (typed(row), count) for row, count in reference_pairs(bag)
    ]
    assert encode_text(again) == text

    nonnegative = SignedBag.from_pairs(
        [(row, abs(count)) for row, count in bag.to_pairs()]
    )
    view = View("V", [R1], ["W"])
    # View contents, as an ``algo`` form's ``mv`` holds them.
    contents = _contents_text(MaterializedView(view, nonnegative))
    assert contents == canonical_json(encode_value(nonnegative))
    assert decode(contents) == nonnegative
