"""Canonical, versioned JSON codec for warehouse state.

Everything the warehouse must survive a crash with — messages, queries,
materialized views, each algorithm's pending protocol state — encodes to
a *tagged* JSON form: every non-primitive value is an object whose ``$``
key names its type.  Plain JSON lists mean Python lists; tuples, dicts
with non-string keys, bags, and every domain object get explicit tags, so
decoding is unambiguous and round-trips are exact (including the strict
``int`` signs :func:`repro.relational.tuples.check_sign` demands).

Canonical form matters: :func:`canonical_json` sorts object keys and
strips whitespace, and :meth:`SignedBag.to_pairs` orders bag contents, so
*equal states produce byte-identical encodings*.  The WAL's CRCs, the
recovery tests' byte-identity property, and snapshot comparison all lean
on this.

The envelope produced by :func:`dumps` carries :data:`CODEC_VERSION`;
:func:`loads` refuses payloads from a different version rather than
guessing at their layout.

:func:`encode_value` *defines* the format; :func:`encode_text` is what
writes it.  Both yield the same bytes, but the text path keeps the
rendering of the values that are large or written more than once — a
pending :class:`Query`, a view's contents, a :class:`Message`, a
:class:`BoundOperand` — with the value, so a snapshot taken while 65
queries wait re-renders none of them, a message is rendered once for the
wire and the WAL together, and an update's tuple once for every term
that binds it.

A bag whose rows are tuples of JSON scalars, all of one width, is one
list per column plus a list of counts (``columns`` / ``counts``); any
other bag is ``[row, count]`` pairs (``pairs``).  A :class:`Query` held
as a dict's value — a UQS entry — is quoted: its canonical text inside a
``json`` form, which a chain fold scans past unparsed and which the
decoded query keeps as its rendering.

A ``query`` is the one form that is not a tree of its parts: the terms
of a compensating query differ in what they bind, not in what they range
over, so the form holds a table of the query's distinct *shapes*
(operand schemas, projection, condition — each written once) and, per
term, a row ``[shape index, coefficient, bindings]``.  A bare
:class:`Term` outside a query keeps the self-contained ``term`` form.

A WAL snapshot chain writes an algorithm whole once, then per snapshot
only what changed: ``algo.delta`` / ``algo.catalog.delta`` forms
(:func:`encode_algorithm` with :class:`Marks`, read back by
:func:`fold_delta`).
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Mapping,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    cast,
)

from repro.errors import CodecError, ViewStateError
from repro.messaging.messages import (
    Message,
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.relational.bag import SignedBag
from repro.relational.conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    Not,
    Operand,
    Or,
    TrueCondition,
)
from repro.relational.expressions import (
    BoundOperand,
    Query,
    RelationOperand,
    Term,
    TermShape,
)
from repro.relational.schema import RelationSchema
from repro.relational.tuples import SignedTuple
from repro.relational.views import View
from repro.source.updates import Update
from repro.warehouse.state import MaterializedView

if TYPE_CHECKING:
    from repro.core.protocol import WarehouseAlgorithm
    from repro.warehouse.catalog import WarehouseCatalog

#: Bumped whenever the encoded layout changes incompatibly.  v2: the
#: routed-protocol unification folded the ``algo.multi`` envelope into
#: the generic ``algo`` form (owners travel in ``config``).  v3: the
#: ``algo.catalog`` envelope carries the shared-compensation planner —
#: a ``share`` flag plus routes whose values are subscriber *lists*
#: (one shared query may fan out to several member views).  v4: the
#: ``query`` form names each distinct shape once, in a ``shapes`` table,
#: and a term is a row of shape index, coefficient and bindings; WAL
#: snapshots carry the version (``"v"``) so a directory from another
#: version is refused before anything in it is decoded.  v5: delta
#: snapshots, and the planner state holds its ``issued`` / ``saved``.
#: v6: bags of equal-width scalar rows are columns plus counts (view
#: contents, COLLECT, ``bag.delta``, answers), and a query held as a
#: dict's value (a root's UQS entry, as a delta's already was) is quoted.
CODEC_VERSION = 6

_PRIMITIVES = (str, int, float, bool, type(None))
#: The types JSON holds as they are, for the exact test ``type(v) in``:
#: a row of nothing else is tagged, and read back, without a call per
#: value.  Not ``isinstance`` — an ``int`` subclass is not known to
#: render as an ``int`` and keeps the general path.
_PLAIN = frozenset(_PRIMITIVES)
#: The one type of a count, and of a column row, for the same exact test.
_INT = frozenset((int,))
_TUPLE = frozenset((tuple,))

_T = TypeVar("_T")

_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def canonical_json(payload: object) -> str:
    """Serialize already-encoded JSON data to its canonical byte form.

    An exact ``int`` or ``str`` — a WAL line's LSN and record type, a
    message id, a term's coefficient — is spelled as the encoder spells
    it (``int.__repr__``, ``encode_basestring_ascii``) without entering
    the encoder; any other value goes through it."""
    kind = type(payload)
    if kind is int:
        return int.__repr__(payload)
    if kind is str:
        return encode_basestring_ascii(payload)
    return _ENCODER.encode(payload)


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #


def encode_value(value: object) -> object:
    """Encode any supported value to tagged JSON data."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return {"$": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {
            "$": "dict",
            "items": [[encode_value(k), _held(v)] for k, v in value.items()],
        }
    if isinstance(value, SignedBag):
        return _bag_form("bag", value.to_pairs())
    if isinstance(value, SignedTuple):
        return {
            "$": "stuple",
            "values": [encode_value(v) for v in value.values],
            "sign": value.sign,
        }
    if isinstance(value, Update):
        return {
            "$": "update",
            "kind": value.kind,
            "relation": value.relation,
            "values": [encode_value(v) for v in value.values],
        }
    if isinstance(value, RelationSchema):
        return {
            "$": "schema",
            "name": value.name,
            "attributes": list(value.attributes),
            "key": list(value.key) if value.key is not None else None,
            "base": value.base,
        }
    if isinstance(value, RelationOperand):
        return {"$": "rel", "schema": encode_value(value.schema)}
    if isinstance(value, BoundOperand):
        return {
            "$": "bound",
            "schema": encode_value(value.schema),
            "tuple": encode_value(value.tuple),
        }
    if isinstance(value, Condition):
        return _encode_condition(value)
    if isinstance(value, (Attr, Const)):
        return _encode_operand(value)
    if isinstance(value, Term):
        return {
            "$": "term",
            "operands": [encode_value(op) for op in value.operands],
            "projection": list(value.projection),
            "condition": _encode_condition(value.condition),
            "coefficient": value.coefficient,
        }
    if isinstance(value, Query):
        return _encode_query(value)
    if isinstance(value, View):
        return {
            "$": "view",
            "name": value.name,
            "relations": [encode_value(s) for s in value.relations],
            "projection": list(value.projection),
            "condition": _encode_condition(value.condition),
        }
    if isinstance(value, MaterializedView):
        return {
            "$": "mv",
            "view": encode_value(value.view),
            "contents": _bag_form("bag", value.contents_pairs()),
        }
    if isinstance(value, Message):
        return _encode_message(value)
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _held(value: object) -> object:
    """A dict's value: a :class:`Query` quoted, anything else as it is."""
    if isinstance(value, Query):
        return {"$": "json", "text": canonical_json(encode_value(value))}
    return encode_value(value)


def _columns(rows: Sequence[Any]) -> Optional[List[List[Any]]]:
    """Rows as one list of encoded cells per column, or ``None`` unless
    there is at least one row and every one is a ``tuple`` of the same
    non-zero width whose cells encode to JSON scalars.  Cells of JSON's
    own types are taken as they are; any other (an ``int`` subclass, a
    nested tuple) goes through :func:`encode_value`, so a row that would
    read back as scalars goes as columns whatever types it was built of."""
    if (
        not rows
        or not _TUPLE.issuperset(map(type, rows))
        or len(set(map(len, rows))) != 1
        or not rows[0]
    ):
        return None
    columns = [list(column) for column in zip(*rows)]
    if _PLAIN.issuperset(map(type, chain.from_iterable(columns))):
        return columns
    columns = [[encode_value(cell) for cell in column] for column in columns]
    if any(isinstance(cell, (dict, list)) for cell in chain.from_iterable(columns)):
        return None
    return columns


def _bag_form(tag: str, pairs: Sequence[Tuple[Any, int]]) -> Dict[str, object]:
    """The ``bag`` / ``bag.delta`` form of ``(row, count)`` pairs: one list
    per column plus the counts when :func:`_columns` allows, else pairs."""
    columns = _columns([row for row, _ in pairs])
    if columns is not None:
        return {"$": tag, "columns": columns, "counts": [count for _, count in pairs]}
    return {"$": tag, "pairs": [[encode_value(row), count] for row, count in pairs]}


def _encode_shape(shape: TermShape) -> Dict[str, object]:
    """What the terms of one layout share.  Untagged: a table entry is
    only ever read through the ``query`` that holds it."""
    return {
        "schemas": [encode_value(schema) for schema in shape.schemas],
        "projection": list(shape.projection),
        "condition": _encode_condition(shape.condition),
    }


def _encode_bindings(term: Term) -> List[object]:
    """Per operand, the signed tuple it is bound to, or null."""
    return [
        encode_value(operand.tuple) if operand.is_bound else None
        for operand in term.operands
    ]


def _encode_query(query: Query) -> Dict[str, object]:
    """A table of the query's distinct shapes, in first-use order, and
    per term ``[shape index, coefficient, bindings]``.

    Shapes are told apart by *value* (their canonical text), never by
    object: a query and its decoded twin share shape objects differently
    and must still encode to the same bytes.
    """
    index_of: Dict[str, int] = {}
    shapes: List[object] = []
    rows: List[object] = []
    for term in query.terms:
        entry = _encode_shape(term.shape)
        index = index_of.setdefault(canonical_json(entry), len(shapes))
        if index == len(shapes):
            shapes.append(entry)
        rows.append([index, term.coefficient, _encode_bindings(term)])
    return {"$": "query", "shapes": shapes, "terms": rows}


def _encode_condition(condition: Condition) -> Dict[str, object]:
    if isinstance(condition, TrueCondition):
        return {"$": "true"}
    if isinstance(condition, Comparison):
        return {
            "$": "cmp",
            "left": _encode_operand(condition.left),
            "op": condition.op,
            "right": _encode_operand(condition.right),
        }
    if isinstance(condition, And):
        return {"$": "and", "parts": [_encode_condition(p) for p in condition.parts]}
    if isinstance(condition, Or):
        return {"$": "or", "parts": [_encode_condition(p) for p in condition.parts]}
    if isinstance(condition, Not):
        return {"$": "not", "part": _encode_condition(condition.part)}
    raise CodecError(f"cannot encode condition {condition!r}")


def _encode_operand(operand: Operand) -> Dict[str, object]:
    if isinstance(operand, Attr):
        return {"$": "attr", "name": operand.name}
    if isinstance(operand, Const):
        return {"$": "const", "value": encode_value(operand.value)}
    raise CodecError(f"cannot encode comparison operand {operand!r}")


def _encode_message(message: Message) -> Dict[str, object]:
    if isinstance(message, UpdateNotification):
        return {
            "$": "msg.update",
            "update": encode_value(message.update),
            "serial": message.serial,
        }
    if isinstance(message, QueryRequest):
        return {
            "$": "msg.query",
            "id": message.query_id,
            "query": encode_value(message.query),
        }
    if isinstance(message, QueryAnswer):
        return {
            "$": "msg.answer",
            "id": message.query_id,
            "answer": encode_value(message.answer),
        }
    if isinstance(message, RefreshRequest):
        return {"$": "msg.refresh", "serial": message.serial}
    if isinstance(message, UpdateBatch):
        return {
            "$": "msg.batch",
            "notifications": [
                _encode_message(n) for n in message.notifications
            ],
        }
    raise CodecError(f"cannot encode message {message!r}")


# --------------------------------------------------------------------- #
# Canonical text
# --------------------------------------------------------------------- #


def splice(fields: Mapping[str, str]) -> str:
    """The canonical text of a JSON object, given the canonical text of
    each of its values: what :func:`canonical_json` makes of the parsed
    values, without parsing or dumping any of them."""
    return "{" + ",".join(f'"{key}":{fields[key]}' for key in sorted(fields)) + "}"


def _tagged(tag: str, **fields: str) -> str:
    return splice({"$": f'"{tag}"', **fields})


def _array(items: Iterable[str]) -> str:
    return f"[{','.join(items)}]"


def encode_text(value: object) -> str:
    """``canonical_json(encode_value(value))``, byte for byte.

    A :class:`Query`, a :class:`Message` and a :class:`BoundOperand` are
    immutable, and a view's contents change only through
    :class:`MaterializedView`'s three writers, so their text is rendered
    once and kept with the object (``Query.encoded``, ``Message.encoded``,
    ``BoundOperand.encoded``, ``MaterializedView.encoded_contents``).
    The containers that can hold one are spliced around that text; every
    other value is a leaf and goes through :func:`encode_value` and
    :func:`canonical_json`.
    """
    if isinstance(value, Query):
        return _query_text(value)
    if isinstance(value, Message):
        return _message_text(value)
    if isinstance(value, dict):
        items = (_array((encode_text(k), _held_text(v))) for k, v in value.items())
        return _tagged("dict", items=_array(items))
    if isinstance(value, list):
        return _array(map(encode_text, value))
    if isinstance(value, tuple):
        return _tagged("tuple", items=_array(map(encode_text, value)))
    if isinstance(value, MaterializedView):
        return _tagged(
            "mv", contents=_contents_text(value), view=encode_text(value.view)
        )
    return canonical_json(encode_value(value))


def _held_text(value: object) -> str:
    """:func:`_held`'s text: a query's own rendering, quoted."""
    if isinstance(value, Query):
        return _tagged("json", text=canonical_json(_query_text(value)))
    return encode_text(value)


def _message_text(message: Message) -> str:
    """A message's text, rendered once: the wire frame that sizes it and
    the WAL record that logs it splice the same string.  A request's
    query and a batch's notifications keep renderings of their own."""
    text = message.encoded
    if text is None:
        if isinstance(message, QueryRequest):
            text = _tagged(
                "msg.query",
                id=canonical_json(message.query_id),
                query=_query_text(message.query),
            )
        elif isinstance(message, UpdateBatch):
            notifications = _array(map(_message_text, message.notifications))
            text = _tagged("msg.batch", notifications=notifications)
        else:
            text = canonical_json(encode_value(message))
        message.encoded = text
    return text


def _query_text(query: Query) -> str:
    text = query.encoded
    if text is None:
        # Insertion-ordered: the keys are the shapes table as it is written.
        index_of: Dict[str, int] = {}
        rows = []
        for term in query.terms:
            index = index_of.setdefault(_shape_text(term.shape), len(index_of))
            rows.append(
                f"[{index},{canonical_json(term.coefficient)},{_bindings_text(term)}]"
            )
        text = query.encoded = _tagged(
            "query", shapes=_array(index_of), terms=_array(rows)
        )
    return text


def _shape_text(shape: TermShape) -> str:
    """A shape's table entry — every operand's schema, the condition and
    the projection — rendered once per :class:`TermShape` and written
    once per query, however many terms and queries are of that shape."""
    text = shape.encoded
    if text is None:
        text = shape.encoded = canonical_json(_encode_shape(shape))
    return text


def _bindings_text(term: Term) -> str:
    """What is a term's own beside its coefficient: per operand, the
    rendering of the tuple it is bound to, or null."""
    return _array([_binding_text(op) if op.is_bound else "null" for op in term.operands])


def _binding_text(operand: BoundOperand) -> str:
    """A bound operand's entry in a term row, rendered once per operand
    object: ``Q<U>`` binds one per updated schema, and every compensating
    query built on it later keeps that object."""
    text = operand.encoded
    if text is None:
        text = operand.encoded = canonical_json(encode_value(operand.tuple))
    return text


def _contents_text(mv: MaterializedView) -> str:
    """A view's contents as the ``bag`` form the ``mv`` and ``algo`` forms
    hold, rendered once between two writes of the view."""
    text = mv.encoded_contents
    if text is None:
        text = mv.encoded_contents = canonical_json(
            _bag_form("bag", mv.contents_pairs())
        )
    return text


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #


def decode_value(data: object) -> object:
    """Decode tagged JSON data back to live objects."""
    if isinstance(data, _PRIMITIVES):
        return data
    if isinstance(data, list):
        return [decode_value(v) for v in data]
    if not isinstance(data, dict):
        raise CodecError(f"cannot decode JSON value {data!r}")
    tag = data.get("$")
    try:
        decoder = _DECODERS[tag]
    except KeyError:
        raise CodecError(f"unknown codec tag {tag!r}") from None
    try:
        return decoder(data)
    except CodecError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CodecError(f"malformed {tag!r} payload: {exc}") from exc


def _decode_bag(data: Dict[str, Any]) -> SignedBag:
    """A ``bag`` or ``bag.delta`` form read back.  Pairs go through
    :meth:`SignedBag.from_pairs`, which refuses a count that is not a
    non-zero ``int`` and a repeated row.  Columns must be what
    :func:`_bag_form` writes — at least one, each a list of JSON scalars
    with one cell per count, at least one count, every count a non-zero
    ``int`` and no row twice — and those checks are made a whole column
    at a time, so a root's thousands of rows cost no call each."""
    if "columns" not in data:
        return SignedBag.from_pairs(
            (decode_value(row), count) for row, count in data["pairs"]
        )
    columns, counts = data["columns"], data["counts"]
    if type(columns) is not list or not columns:
        raise CodecError(f"a column bag needs one or more columns, got {columns!r}")
    if type(counts) is not list or not counts:
        raise CodecError(f"a column bag needs one or more counts, got {counts!r}")
    if any(type(column) is not list or len(column) != len(counts) for column in columns):
        raise CodecError(f"ragged columns: each must hold one cell per count ({len(counts)})")
    if not _PLAIN.issuperset(map(type, chain.from_iterable(columns))):
        raise CodecError("a column holds a cell that is not a JSON scalar")
    if not _INT.issuperset(map(type, counts)):
        bad = next(count for count in counts if type(count) is not int)
        raise CodecError(f"a column bag's count is not an int: {bad!r}")
    if 0 in counts:
        raise CodecError(f"a column bag holds a zero count (row {counts.index(0)})")
    contents = dict(zip(zip(*columns), counts))
    if len(contents) != len(counts):
        raise CodecError(
            f"a column bag repeats a row: {len(counts)} counts, {len(contents)} rows"
        )
    # Every check from_pairs makes per pair is made above, a column at a
    # time; the dict is the bag's store as it is (from_columns would walk
    # the rows again in Python, merging repeats there are none of).
    bag = SignedBag()
    bag._counts = contents
    return bag


def _decode_quoted(data: Dict[str, Any]) -> object:
    """A ``json`` form: the quoted value, decoded.  A query keeps the text
    it was read from as its rendering — the writer quotes nothing but a
    query's canonical text, and the CRC vouches for the bytes."""
    text = data["text"]
    value = decode_value(json.loads(text))
    if isinstance(value, Query):
        value.encoded = text
    return value


def _decode_as(data: object, kind: Type[_T]) -> _T:
    value = decode_value(data)
    if not isinstance(value, kind):
        raise CodecError(f"expected a {kind.__name__}, decoded {value!r}")
    return value


def _decode_operands(
    schemas: Sequence[RelationSchema], bindings: List[Any]
) -> List[object]:
    if len(bindings) != len(schemas):
        raise CodecError(
            f"{len(bindings)} binding(s) for a shape of {len(schemas)} operand(s)"
        )
    return [
        RelationOperand(schema)
        if bound is None
        else BoundOperand(schema, _decode_as(bound, SignedTuple))
        for schema, bound in zip(schemas, bindings)
    ]


def _decode_query(data: Dict[str, Any]) -> Query:
    """A query's terms, one :class:`TermShape` per table entry.

    A pending ECA query is dozens of terms over the same operand schemas,
    projection and condition; building each through ``Term(...)`` would
    give every one its own shape, and ``Q<U>`` over the decoded query
    would lose the sharing a locally built query has.  The first term of
    an entry is built (and validated) in full; the rest take its shape.

    Only the table :func:`_query_text` would write is accepted — every
    entry used, first uses in table order, no two entries alike — so
    that what decodes re-encodes to the bytes it was read from.
    """
    entries = data["shapes"]
    if len(entries) > 1 and len(set(map(canonical_json, entries))) != len(entries):
        raise CodecError("a query's shapes table repeats an entry")
    firsts: List[Term] = []  # per entry reached so far, its first term
    terms: List[Term] = []
    for index, coefficient, bindings in data["terms"]:
        if type(index) is not int or not 0 <= index < len(entries):
            raise CodecError(
                f"shape index {index!r} names no entry of a "
                f"{len(entries)}-entry shapes table"
            )
        if index > len(firsts):
            raise CodecError(
                f"shape {index} is used before shape {len(firsts)}: the "
                f"shapes table is not in first-use order"
            )
        if index == len(firsts):
            entry = entries[index]
            schemas = [_decode_as(s, RelationSchema) for s in entry["schemas"]]
            term = Term(
                _decode_operands(schemas, bindings),
                entry["projection"],
                _decode_as(entry["condition"], Condition),
                coefficient,
            )
            firsts.append(term)
        else:
            first = firsts[index]
            term = first.with_operands(
                _decode_operands(first.shape.schemas, bindings), coefficient
            )
        terms.append(term)
    if len(firsts) != len(entries):
        raise CodecError(
            f"a query's shapes table has {len(entries)} entries, "
            f"its terms use {len(firsts)}"
        )
    return Query(terms)


_DECODERS: Dict[str, Callable[[Dict[str, Any]], object]] = {
    "tuple": lambda d: tuple(decode_value(v) for v in d["items"]),
    "dict": lambda d: {decode_value(k): decode_value(v) for k, v in d["items"]},
    "bag": _decode_bag,
    "bag.chain": lambda d: _decode_bag_chain(d),
    "json": _decode_quoted,
    "stuple": lambda d: SignedTuple(
        [decode_value(v) for v in d["values"]], d["sign"]
    ),
    "update": lambda d: Update(
        d["kind"], d["relation"], [decode_value(v) for v in d["values"]]
    ),
    "schema": lambda d: RelationSchema(
        d["name"], d["attributes"], key=d["key"], base=d["base"]
    ),
    "rel": lambda d: RelationOperand(decode_value(d["schema"])),
    "bound": lambda d: BoundOperand(
        decode_value(d["schema"]), decode_value(d["tuple"])
    ),
    "true": lambda d: TrueCondition(),
    "cmp": lambda d: Comparison(
        decode_value(d["left"]), d["op"], decode_value(d["right"])
    ),
    "and": lambda d: And(*[decode_value(p) for p in d["parts"]]),
    "or": lambda d: Or(*[decode_value(p) for p in d["parts"]]),
    "not": lambda d: Not(decode_value(d["part"])),
    "attr": lambda d: Attr(d["name"]),
    "const": lambda d: Const(decode_value(d["value"])),
    "term": lambda d: Term(
        [decode_value(op) for op in d["operands"]],
        d["projection"],
        decode_value(d["condition"]),
        d["coefficient"],
    ),
    "query": _decode_query,
    "view": lambda d: View(
        d["name"],
        [decode_value(s) for s in d["relations"]],
        d["projection"],
        decode_value(d["condition"]),
    ),
    "mv": lambda d: MaterializedView(
        decode_value(d["view"]), _decode_as(d["contents"], SignedBag)
    ),
    "msg.update": lambda d: UpdateNotification(
        decode_value(d["update"]), d["serial"]
    ),
    "msg.query": lambda d: QueryRequest(d["id"], decode_value(d["query"])),
    "msg.answer": lambda d: QueryAnswer(d["id"], decode_value(d["answer"])),
    "msg.refresh": lambda d: RefreshRequest(d["serial"]),
    "msg.batch": lambda d: UpdateBatch(
        tuple(
            cast(UpdateNotification, decode_value(n))
            for n in d["notifications"]
        )
    ),
}


# --------------------------------------------------------------------- #
# Envelope + round-trip validation
# --------------------------------------------------------------------- #


def _envelope(data: str) -> str:
    return splice({"v": canonical_json(CODEC_VERSION), "data": data})


def dumps(value: object, validate: bool = False) -> str:
    """Encode to a canonical, versioned JSON string.

    ``validate=True`` decodes the result and re-encodes it, raising
    :class:`CodecError` unless the bytes match — catching any value that
    would not survive persistence *before* it is written.
    """
    text = _envelope(encode_text(value))
    if validate and dumps(loads(text)) != text:
        raise CodecError(f"round-trip validation failed for {value!r}")
    return text


def loads(text: str) -> object:
    """Decode a string produced by :func:`dumps`."""
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "v" not in envelope or "data" not in envelope:
        raise CodecError("payload is not a codec envelope")
    if envelope["v"] != CODEC_VERSION:
        raise CodecError(
            f"codec version mismatch: payload v{envelope['v']}, "
            f"supported v{CODEC_VERSION}"
        )
    return decode_value(envelope["data"])


# --------------------------------------------------------------------- #
# Whole-algorithm snapshots
# --------------------------------------------------------------------- #


class Marks:
    """What the last snapshot written through these marks held: per
    algorithm (a catalog class by its first member's name, a lone one
    under ``None``) its
    UQS, its pending bags' counts and its other pending fields' text;
    its view's changes since are in the journal the marks read."""

    def __init__(self, algorithm: WarehouseAlgorithm) -> None:
        self.algorithm = algorithm
        self.held: Dict[Optional[str], Tuple[Dict[int, Query], Dict[str, Any], str]] = {}
        self.views: List[MaterializedView] = []

    def release(self) -> None:
        """Close the journals these marks opened."""
        for mv in self.views:
            mv.close_journal(self)


def encode_algorithm(algorithm: WarehouseAlgorithm, marks: Optional[Marks] = None) -> str:
    """Canonical text of a live warehouse algorithm (any protocol
    family): the view definition(s), the materialized contents, the
    constructor options, and the full pending protocol state.

    Dispatch is on the algorithm's ``codec_tag`` class attribute — the
    routed protocol made every registry family (single- or multi-source)
    share the generic ``algo`` envelope, with owners and other
    constructor options carried by ``durable_config()``.  The payload
    :func:`decode_algorithm` takes is ``json.loads`` of this text.

    Fresh ``marks`` get the full form and remember what it held; marks
    that remember a snapshot get a *delta* over it, and then remember
    this one: the view rows written since and each pending bag's changes
    (``bag.delta``), the UQS entries added and the ids ``retired``, every
    other pending field in full and, of a catalog, the members that moved.
    A catalog class is encoded once and written under each member's name,
    a root with the member's own view.
    """
    delta = marks is not None and bool(marks.held)
    if getattr(algorithm, "codec_tag", "algo") == "algo.catalog":
        catalog = cast("WarehouseCatalog", algorithm)
        texts: Dict[str, str] = {}
        for member, names in catalog.classes():
            views = [catalog.views[name] for name in names]
            found = _algo_texts(member, views, marks, names[0])
            if found is not None:
                texts.update(zip(names, found))
        members = [_array((canonical_json(n), texts[n])) for n in catalog.views if n in texts]
        pending = encode_text(catalog.pending_state())
        if delta:
            return _tagged("algo.catalog.delta", members=_array(members), pending=pending)
        share = canonical_json(catalog.share_compensation)
        return _tagged("algo.catalog", share=share, members=_array(members), pending=pending)
    return cast(List[str], _algo_texts(algorithm, [algorithm.view], marks, None))[0]


def _algo_texts(
    algorithm: WarehouseAlgorithm,
    views: Sequence[View],
    marks: Optional[Marks],
    key: Optional[str],
) -> Optional[List[str]]:
    """One algorithm's ``algo`` form under each of ``views`` (a catalog
    class's members), or its ``algo.delta`` over what ``marks`` remember
    of it, once per view — ``None`` for a catalog class (``key`` not
    ``None``) that did not move.

    The UQS is told apart by query *object*: ids ascend and a pending
    query is immutable, so an id holding the same object holds the
    same query.
    """
    state = algorithm.pending_state()
    held = marks.held.get(key) if marks is not None else None
    uqs_then, bags_then, rest_then = held or ({}, {}, "")
    uqs: Dict[int, Query] = state.get("uqs", {})
    retired = [qid for qid, query in uqs_then.items() if uqs.get(qid) is not query]
    moved = bool(retired)
    items: List[str] = []
    rest: List[str] = []
    bags: Dict[str, Any] = {}
    for field, value in state.items():
        if marks is not None and isinstance(value, SignedBag):
            bags[field] = dict(value.items())
        if held is not None and field == "uqs":
            # Quoted, as a root's are: most are retired a few links on,
            # and folding then scans past the text unparsed.
            added = {qid: q for qid, q in uqs.items() if uqs_then.get(qid) is not q}
            moved = moved or bool(added)
            text = encode_text(added)
        elif held is not None and field in bags and field in bags_then:
            diff = _bag_changes(bags_then[field], bags[field])
            moved = moved or bool(diff)
            text = canonical_json(_bag_form("bag.delta", diff))
        else:
            text = encode_text(value)
            if field != "uqs" and field not in bags:
                rest.append(text)
        items.append(_array((encode_text(field), text)))
    pending = _tagged("dict", items=_array(items))
    # A root's call opens the journal; a delta's empties it.
    changes = None if marks is None else algorithm.mv.take_changes(marks)
    if marks is not None:
        marks.held[key] = (uqs, bags, _array(rest))
    if held is None:
        if marks is not None:
            marks.views.append(algorithm.mv)
        fields = {
            "name": canonical_json(algorithm.name),
            "mv": _contents_text(algorithm.mv),
            "config": encode_text(algorithm.durable_config()),
            "pending": pending,
        }
        return [_tagged("algo", view=encode_text(view), **fields) for view in views]
    if key is not None and not (changes or moved) and _array(rest) == rest_then:
        return None
    text = _tagged(
        "algo.delta",
        mv=canonical_json(_bag_form("bag.delta", _net(changes or []))),
        pending=pending,
        retired=canonical_json(retired),
    )
    return [text] * len(views)


def _net(changes: Sequence[Tuple[Any, int]]) -> List[Tuple[Any, int]]:
    """A journal's ``(row, delta)`` pairs summed per row, zeros dropped,
    in first-write order: a row written twice is one pair."""
    net: Dict[Any, int] = {}
    for row, count in changes:
        net[row] = net.get(row, 0) + count
    return [(row, count) for row, count in net.items() if count]


def _bag_changes(then: Dict[Any, int], now: Dict[Any, int]) -> List[Tuple[Any, int]]:
    """``(row, signed count)`` pairs that turn ``then`` into ``now``."""
    changes = [(row, n - then.get(row, 0)) for row, n in now.items() if then.get(row) != n]
    return changes + [(row, -n) for row, n in then.items() if row not in now]


#: The delta form that folds onto each base form.
_DELTA_OF = {
    "algo": "algo.delta",
    "algo.catalog": "algo.catalog.delta",
    "bag": "bag.delta",
    "bag.chain": "bag.delta",
}


def fold_delta(base: Dict[str, Any], delta: Dict[str, Any]) -> Dict[str, Any]:
    """A parsed delta read onto its base's parsed payload: the payload
    :func:`decode_algorithm` takes for the snapshot the delta stands for.
    Folding parsed JSON decodes no query a later link retires; a bag
    becomes a ``bag.chain``, decoded once.  A delta that does not fit its
    base raises :class:`CodecError`, or ``KeyError`` / ``TypeError`` /
    ``ValueError`` / ``AttributeError`` where it is malformed."""
    tag = base.get("$")
    if _DELTA_OF.get(tag) != delta.get("$"):
        raise CodecError(f"a {delta.get('$')!r} over a {tag!r}")
    if tag == "algo.catalog":
        members = dict(base["members"])
        for name, change in delta["members"]:
            if name not in members:
                raise CodecError(f"the delta names member {name!r}, which its base lacks")
            members[name] = fold_delta(members[name], change)
        members_list = [[name, member] for name, member in members.items()]
        return {**base, "members": members_list, "pending": delta["pending"]}
    if tag != "algo":
        chain = base if tag == "bag.chain" else {"$": "bag.chain", "base": base, "changes": []}
        return {**chain, "changes": [*chain["changes"], delta]}
    held = dict(base["pending"]["items"])
    gone = set(delta["retired"])
    items = []
    for field, value in delta["pending"]["items"]:
        if field == "uqs":
            then = held["uqs"]["items"]
            kept = [entry for entry in then if entry[0] not in gone]
            if len(kept) + len(gone) != len(then):
                raise CodecError(f"the delta retires {sorted(gone)}, not all in its base")
            value = {"$": "dict", "items": kept + value["items"]}
        elif type(value) is dict and value.get("$") == "bag.delta":
            value = fold_delta(held[field], value)
        items.append([field, value])
    pending = {"$": "dict", "items": items}
    return {**base, "mv": fold_delta(base["mv"], delta["mv"]), "pending": pending}


def _decode_bag_chain(data: Dict[str, Any]) -> SignedBag:
    """A :func:`fold_delta` bag: the base's rows plus each link's."""
    bag = _decode_bag(data["base"])
    for change in data["changes"]:
        bag.add_bag(_decode_bag(change))
    return bag


def decode_algorithm(data: Dict[str, Any]) -> WarehouseAlgorithm:
    """Rebuild a live algorithm from a parsed :func:`encode_algorithm`
    payload, or from one :func:`fold_delta` made."""
    from repro.core.registry import create_algorithm
    from repro.warehouse.catalog import WarehouseCatalog

    tag = data.get("$")
    if tag == "algo.catalog":
        members = {
            name: decode_algorithm(payload) for name, payload in data["members"]
        }
        catalog = WarehouseCatalog(
            members, share_compensation=bool(data.get("share", False))
        )
        catalog.restore_pending_state(
            cast(Dict[str, Any], decode_value(data["pending"]))
        )
        return catalog
    if tag == "algo":
        config = cast(Dict[str, Any], decode_value(data["config"]))
        try:
            algorithm = create_algorithm(
                data["name"],
                cast(View, decode_value(data["view"])),
                cast(SignedBag, decode_value(data["mv"])),
                **config,
            )
        except (KeyError, ViewStateError) as exc:
            raise CodecError(f"cannot rebuild algorithm: {exc}") from None
        algorithm.restore_pending_state(
            cast(Dict[str, Any], decode_value(data["pending"]))
        )
        return algorithm
    raise CodecError(f"unknown algorithm payload tag {tag!r}")


def dumps_algorithm(algorithm: WarehouseAlgorithm, validate: bool = True) -> str:
    """Canonical string form of a live algorithm, round-trip validated.

    Validation here is structural *and* behavioral: the decoded twin must
    re-encode to the same bytes, which covers view contents, pending
    queries, and every algorithm-specific buffer.
    """
    text = _envelope(encode_algorithm(algorithm))
    if validate:
        twin = loads_algorithm(text)
        if dumps_algorithm(twin, validate=False) != text:
            raise CodecError(
                f"algorithm round-trip validation failed for {algorithm!r}"
            )
    return text


def loads_algorithm(text: str) -> WarehouseAlgorithm:
    """Decode a string produced by :func:`dumps_algorithm`."""
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("v") != CODEC_VERSION:
        raise CodecError("payload is not a supported algorithm envelope")
    return decode_algorithm(envelope["data"])
