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
rendering of the two values that are large and outlive many writes — a
pending :class:`Query` and a view's contents — with the value, so a
snapshot taken while 65 queries wait re-renders none of them.

A ``query`` is the one form that is not a tree of its parts: the terms
of a compensating query differ in what they bind, not in what they range
over, so the form holds a table of the query's distinct *shapes*
(operand schemas, projection, condition — each written once) and, per
term, a row ``[shape index, coefficient, bindings]``.  A bare
:class:`Term` outside a query keeps the self-contained ``term`` form.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    cast,
)

from repro.errors import CodecError
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
#: version is refused before anything in it is decoded.
CODEC_VERSION = 4

_PRIMITIVES = (str, int, float, bool, type(None))
#: The types JSON holds as they are, for the exact test ``type(v) in``:
#: a row of nothing else is tagged, and read back, without a call per
#: value.  Not ``isinstance`` — an ``int`` subclass is not known to
#: render as an ``int`` and keeps the general path.
_PLAIN = frozenset(_PRIMITIVES)

_T = TypeVar("_T")

_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def canonical_json(payload: object) -> str:
    """Serialize already-encoded JSON data to its canonical byte form."""
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
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, SignedBag):
        return {
            "$": "bag",
            "pairs": [
                [encode_value(row), count] for row, count in value.to_pairs()
            ],
        }
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
            "contents": [
                [encode_value(row), count] for row, count in value.contents_pairs()
            ],
        }
    if isinstance(value, Message):
        return _encode_message(value)
    raise CodecError(f"cannot encode value of type {type(value).__name__}: {value!r}")


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

    A :class:`Query` is immutable and a view's contents change only
    through :class:`MaterializedView`'s three writers, so their text is
    rendered once and kept with the object (``Query.encoded``,
    ``MaterializedView.encoded_contents``).  The containers and messages
    that can hold one are spliced around that text; every other value is
    a leaf and goes through :func:`encode_value` and the C encoder as
    before.
    """
    if isinstance(value, Query):
        return _query_text(value)
    if isinstance(value, dict):
        items = (_array((encode_text(k), encode_text(v))) for k, v in value.items())
        return _tagged("dict", items=_array(items))
    if isinstance(value, list):
        return _array(map(encode_text, value))
    if isinstance(value, tuple):
        return _tagged("tuple", items=_array(map(encode_text, value)))
    if isinstance(value, MaterializedView):
        return _tagged(
            "mv", contents=_contents_text(value), view=encode_text(value.view)
        )
    if isinstance(value, SignedBag):
        return _tagged("bag", pairs=_pairs_text(value.to_pairs()))
    if isinstance(value, QueryRequest):
        return _tagged(
            "msg.query",
            id=canonical_json(value.query_id),
            query=_query_text(value.query),
        )
    return canonical_json(encode_value(value))


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
    """What is a term's own beside its coefficient: its bound tuples."""
    return canonical_json(_encode_bindings(term))


def _pairs_text(pairs: Iterable[Tuple[object, int]]) -> str:
    """The ``[[row, multiplicity], ...]`` list of the ``mv`` and ``bag``
    forms.  A row that is a tuple of JSON's own scalars — every row of a
    relation — is tagged here, without a call per value; any other row
    goes through :func:`encode_value`."""
    return canonical_json(
        [
            [
                {"$": "tuple", "items": list(row)}
                if type(row) is tuple and _PLAIN.issuperset(map(type, row))
                else encode_value(row),
                count,
            ]
            for row, count in pairs
        ]
    )


def _contents_text(mv: MaterializedView) -> str:
    """A view's contents as the ``mv`` form and an algorithm snapshot's
    ``bag`` hold them, rendered once per version of the contents."""
    text = mv.encoded_contents
    if text is None:
        text = mv.encoded_contents = _pairs_text(mv.contents_pairs())
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


def _decode_pairs(pairs: List[Any]) -> SignedBag:
    """:func:`_pairs_text` read back: a ``tuple`` of scalars as parsed
    is the row; anything else goes through :func:`decode_value`."""
    decoded: List[Tuple[Any, Any]] = []
    for row, count in pairs:
        if type(row) is dict and row.get("$") == "tuple":
            items = row.get("items")
            if type(items) is list and _PLAIN.issuperset(map(type, items)):
                decoded.append((tuple(items), count))
                continue
        decoded.append((decode_value(row), count))
    return SignedBag.from_pairs(decoded)


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
    "bag": lambda d: _decode_pairs(d["pairs"]),
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
        decode_value(d["view"]), _decode_pairs(d["contents"])
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


def encode_algorithm(algorithm: WarehouseAlgorithm) -> str:
    """Canonical text of a live warehouse algorithm (any protocol
    family): the view definition(s), the materialized contents, the
    constructor options, and the full pending protocol state.

    Dispatch is on the algorithm's ``codec_tag`` class attribute — the
    routed protocol made every registry family (single- or multi-source)
    share the generic ``algo`` envelope, with owners and other
    constructor options carried by ``durable_config()``.  The payload
    :func:`decode_algorithm` takes is ``json.loads`` of this text.
    """
    if getattr(algorithm, "codec_tag", "algo") == "algo.catalog":
        catalog = cast("WarehouseCatalog", algorithm)
        members = (
            _array((canonical_json(name), encode_algorithm(member)))
            for name, member in catalog.algorithms.items()
        )
        return _tagged(
            "algo.catalog",
            share=canonical_json(catalog.share_compensation),
            members=_array(members),
            pending=encode_text(catalog.pending_state()),
        )
    return _tagged(
        "algo",
        name=canonical_json(algorithm.name),
        view=encode_text(algorithm.view),
        mv=_tagged("bag", pairs=_contents_text(algorithm.mv)),
        config=encode_text(algorithm.durable_config()),
        pending=encode_text(algorithm.pending_state()),
    )


def decode_algorithm(data: Dict[str, Any]) -> WarehouseAlgorithm:
    """Rebuild a live algorithm from a parsed :func:`encode_algorithm` payload."""
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
        except KeyError as exc:
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
