"""Unit tests for the durability codec (``repro.durability.codec``).

The load-bearing property: equal states produce byte-identical canonical
encodings, and every encoding decodes back to an equal live object — for
plain values, messages, and whole algorithms mid-protocol.
"""

import json
import os

import pytest

from repro.core.registry import ALGORITHMS, build_algorithm, create_algorithm
from repro.durability import (
    CODEC_VERSION,
    WriteAheadLog,
    canonical_json,
    codec,
    decode_algorithm,
    decode_value,
    dumps_algorithm,
    encode_algorithm,
    encode_text,
    encode_value,
    loads_algorithm,
    recover,
    read_latest_snapshot,
)
from repro.durability.wal import WAL_FILENAME, _snapshot_name, read_records
from repro.errors import CodecError
from repro.messaging.messages import (
    QueryAnswer,
    QueryRequest,
    RefreshRequest,
    UpdateBatch,
    UpdateNotification,
)
from repro.messaging.wire import create_codec
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.state import MaterializedView

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def make_view():
    return View.natural_join("V", SCHEMAS, ["W", "Y"])


def roundtrip(value):
    """``value`` through its canonical text and back; the decoded twin
    must re-encode to the text it was read from."""
    text = encode_text(value)
    twin = decode_value(json.loads(text))
    assert encode_text(twin) == text
    return twin


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -3,
            2.5,
            "text",
            (1, 2, "a"),
            [1, (2, 3), "x"],
            {"k": (1,), (1, 2): [3]},
            SignedBag.from_rows([(1, 2), (1, 2), (3, 4)]),
        ],
    )
    def test_roundtrip_equal(self, value):
        assert roundtrip(value) == value

    def test_bool_does_not_collapse_to_int(self):
        # bool is an int subclass; the codec must keep them distinct
        # because tuple equality would otherwise silently change rows.
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True

    def test_tuple_list_distinction_survives(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert not isinstance(roundtrip((1, 2)), list)

    def test_canonical_bytes_for_equal_bags(self):
        a = SignedBag.from_rows([(1,), (2,), (2,)])
        b = SignedBag.from_rows([(2,), (1,), (2,)])
        assert encode_text(a) == encode_text(b)

    def test_view_and_query_roundtrip(self):
        view = make_view()
        again = roundtrip(view)
        state = {
            "r1": SignedBag.from_rows(INITIAL["r1"]),
            "r2": SignedBag.from_rows(INITIAL["r2"]),
        }
        assert again.name == view.name
        assert again.evaluate(state) == view.evaluate(state)

    def test_message_roundtrips(self):
        _, request = algorithm_mid_protocol("eca").pending_requests()[0]
        messages = [
            UpdateNotification(insert("r1", (9, 9)), 4),
            QueryRequest(7, request.query),
            QueryAnswer(7, SignedBag.from_rows([(9, 5)])),
            RefreshRequest(2),
        ]
        for message in messages:
            assert roundtrip(message) == message

    def test_decoded_query_shares_one_shape_per_layout(self):
        view = make_view()
        query = view.as_query()
        for n in range(4):
            query = query - query.substitute("r1", insert("r1", (n, 2)).signed_tuple())
        other = View("O", SCHEMAS, ["r1.X"]).substitute(
            "r2", insert("r2", (2, 5)).signed_tuple()
        )
        mixed = query + other
        again = roundtrip(mixed)
        assert again == mixed and encode_text(again) == encode_text(mixed)
        shapes = {id(term.shape) for term in again.terms}
        assert len(mixed.terms) > 2 and len(shapes) == 2
        assert again.terms[-1].shape is not again.terms[0].shape

    def test_query_of_non_terms_refused(self):
        with pytest.raises(CodecError):
            decode_value({"$": "query", "terms": [{"$": "true"}]})
        with pytest.raises(CodecError):
            decode_value({"$": "query", "terms": [3]})

    def shaped(self):
        """A two-shape query as parsed JSON, plus its canonical text."""
        query = compensating_query() + View("O", SCHEMAS, ["r1.X"]).as_query()
        text = encode_text(query)
        return json.loads(text), text

    def test_query_form_is_a_shape_table_and_rows(self):
        data, text = self.shaped()
        assert sorted(data) == ["$", "shapes", "terms"]
        assert [sorted(entry) for entry in data["shapes"]] == [
            ["condition", "projection", "schemas"]
        ] * 2
        assert [row[:2] for row in data["terms"]] == [[0, 1], [0, 1], [0, -1], [1, 1]]
        assert [[b is not None for b in row[2]] for row in data["terms"]] == [
            [False, False], [True, False], [True, True], [False, False],
        ]
        assert encode_text(decode_value(data)) == text

    @pytest.mark.parametrize("index", ["0", 0.0, None, True, False, -1, 2, [0]])
    def test_shape_index_must_be_an_int_naming_an_entry(self, index):
        data, _ = self.shaped()
        data["terms"][1][0] = index
        with pytest.raises(CodecError, match="shape index"):
            decode_value(data)

    @pytest.mark.parametrize("bindings", [[], [None], [None, None, None]])
    def test_binding_list_must_match_the_shapes_arity(self, bindings):
        # Zipped short, a one-binding row would build a one-operand term.
        for row in (0, 1):  # the first term of an entry, and a later one
            data, _ = self.shaped()
            data["terms"][row][2] = bindings
            with pytest.raises(CodecError, match="binding"):
                decode_value(data)

    def test_binding_must_be_a_signed_tuple(self):
        data, _ = self.shaped()
        data["terms"][1][2][0] = {"$": "tuple", "items": [7, 2]}
        with pytest.raises(CodecError, match="SignedTuple"):
            decode_value(data)

    def test_only_the_canonical_shapes_table_is_accepted(self):
        """An unused, repeated or out-of-order entry decodes to a query
        that would re-encode to other bytes than it was read from."""
        data, _ = self.shaped()
        data["terms"].pop()  # entry 1 is now unused
        with pytest.raises(CodecError, match="2 entries"):
            decode_value(data)

        data, _ = self.shaped()
        data["shapes"][1] = data["shapes"][0]
        with pytest.raises(CodecError, match="repeats"):
            decode_value(data)

        data, _ = self.shaped()
        data["shapes"].reverse()
        for row in data["terms"]:
            row[0] = 1 - row[0]
        with pytest.raises(CodecError, match="first-use order"):
            decode_value(data)

    def test_a_further_term_of_a_known_shape_costs_its_bindings(self):
        """The size pin.  v3 wrote the shape around every term's bound
        tuple: 618 B for the appended term below, 62 B now."""
        schemas = SCHEMAS + [RelationSchema("r3", ("Y", "Z"), key=("Z",))]
        query = View.natural_join("V", schemas, ["W", "Z"]).as_query()
        query = query + query.substitute("r1", insert("r1", (7, 2)).signed_tuple())
        extra = View.natural_join("V", schemas, ["W", "Z"]).substitute(
            "r2", insert("r2", (123456, 2)).signed_tuple()
        )
        assert extra.terms[0].shape is not query.terms[0].shape
        grown = query + extra
        assert len(json.loads(encode_text(grown))["shapes"]) == 1
        assert 0 < len(encode_text(grown)) - len(encode_text(query)) < 160
        # No form that repeats the shape per term could meet that.
        assert len(query.terms[0].shape.encoded) > 2 * 160

    def test_a_bare_term_or_view_state_is_no_persisted_form(self):
        """Codec v7: a term is written only inside a ``query``, and view
        contents only as an ``algo`` form's ``mv`` bag.  A bare term, an
        operand or a ``MaterializedView`` is refused, naming its type,
        and their old tags read as unknown."""
        term = compensating_query().terms[1]
        mv = MaterializedView(make_view(), SignedBag.from_rows([(1, 5)]))
        for value, kind in (
            (term, "Term"),
            (term.operands[0], "BoundOperand"),
            (term.operands[1], "RelationOperand"),
            (mv, "MaterializedView"),
            ([mv], "MaterializedView"),
            ({"k": term}, "Term"),
        ):
            for encode in (encode_value, encode_text):
                with pytest.raises(CodecError, match=f"cannot encode value of type {kind}"):
                    encode(value)
        for tag in ("term", "mv", "rel", "bound"):
            with pytest.raises(CodecError, match=f"unknown codec tag '{tag}'"):
                decode_value({"$": tag})
        assert json.loads(encode_text(Query([term])))["$"] == "query"

    def test_unencodable_value_raises(self):
        with pytest.raises(CodecError):
            encode_text(object())

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode_value({"$": "no-such-tag"})

    def test_version_mismatch_refused(self):
        text = dumps_algorithm(algorithm_mid_protocol("eca"))
        for stamp in (CODEC_VERSION - 1, 999):
            older = text.replace(f'"v":{CODEC_VERSION}', f'"v":{stamp}')
            with pytest.raises(CodecError, match=f"version.*v{stamp}"):
                loads_algorithm(older)

    def test_malformed_payload_raises_codec_error(self):
        with pytest.raises(CodecError):
            decode_value({"$": "bag", "pairs": [["not-a-pair"]]})


def algorithm_mid_protocol(name):
    """An algorithm of the given registry name with a query in flight."""
    source = MemorySource(SCHEMAS, INITIAL)
    algorithm = build_algorithm(name, make_view(), source)
    update = insert("r1", (7, 2))
    source.apply_update(update)
    algorithm.on_update("source", UpdateNotification(update, 1))
    return algorithm


class TestAlgorithmRoundTrips:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_registry_algorithms_roundtrip_byte_identical(self, name):
        cls = ALGORITHMS[name]
        # Recovery rebuilds by the persisted name; kernels branch on
        # multi_source; the metrics poller calls gauges() bare.
        assert cls.name == name
        assert isinstance(cls.multi_source, bool)
        algorithm = algorithm_mid_protocol(name)
        assert isinstance(algorithm.gauges(), dict)
        text = dumps_algorithm(algorithm)
        twin = loads_algorithm(text)
        assert dumps_algorithm(twin) == text
        assert twin.view_state() == algorithm.view_state()
        assert twin.pending_query_ids() == algorithm.pending_query_ids()

    def test_pending_requests_survive(self):
        algorithm = algorithm_mid_protocol("eca")
        assert algorithm.pending_query_ids()  # mid-UQS by construction
        twin = loads_algorithm(dumps_algorithm(algorithm))
        assert list(twin.pending_requests()) == list(algorithm.pending_requests())

    def test_twin_is_independent(self):
        algorithm = algorithm_mid_protocol("eca")
        twin = loads_algorithm(dumps_algorithm(algorithm))
        qid = algorithm.pending_query_ids()[0]
        algorithm.on_answer("source", QueryAnswer(qid, SignedBag()))
        # Draining the original leaves the twin's UQS untouched.
        assert qid in twin.pending_query_ids()
        assert qid not in algorithm.pending_query_ids()

    def test_unknown_algorithm_payload_refused(self):
        with pytest.raises(CodecError):
            loads_algorithm(
                dumps_algorithm(algorithm_mid_protocol("eca")).replace(
                    '"name":"eca"', '"name":"nope"'
                )
            )

    @staticmethod
    def three_update_uqs():
        """An ECA over a three-relation view with three updates pending."""
        schemas = SCHEMAS + [RelationSchema("r3", ("Y", "Z"), key=("Z",))]
        view = View.natural_join("V", schemas, ["W", "Z"])
        algorithm = create_algorithm("eca", view, SignedBag())
        updates = [insert("r1", (7, 2)), insert("r2", (2, 5)), insert("r1", (8, 2))]
        for serial, update in enumerate(updates, start=1):
            algorithm.on_update("source", UpdateNotification(update, serial))
        return algorithm

    @staticmethod
    def bound_operands(warehouse):
        """(schema, tuple) -> ids of the UQS's operand objects binding it."""
        found = {}
        for query in warehouse.uqs.values():
            for term in query.terms:
                for operand in term.operands:
                    if operand.is_bound:
                        found.setdefault((operand.schema, operand.tuple), set()).add(
                            id(operand)
                        )
        return found

    def test_a_recovered_uqs_shares_one_operand_per_binding(self, tmp_path):
        """Decoded, every UQS term that binds one update's tuple holds one
        operand object, validated once and rendered once."""
        algorithm = self.three_update_uqs()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)
        wal.close()
        recovered = recover(str(tmp_path)).algorithm
        live, twin = self.bound_operands(algorithm), self.bound_operands(recovered)
        assert len(algorithm.uqs) == 3 and len(live) == 3
        assert twin.keys() == live.keys()
        assert sorted(map(len, twin.values())) == [1, 1, 1]
        assert encode_algorithm(recovered) == encode_algorithm(algorithm)

    def test_the_live_uqs_shares_one_operand_per_binding(self):
        """Live, too: an update's ``V<U>`` and ``-sum_j Q_j<U>`` bind its
        tuple in one operand object, so the three bindings are held by
        three objects, not one per substitution."""
        algorithm = self.three_update_uqs()
        live = self.bound_operands(algorithm)
        assert len(algorithm.uqs) == 3
        assert sorted(map(len, live.values())) == [1, 1, 1]


def reference_text(value):
    """The definition: the tagged form through the stock JSON encoder."""
    return json.dumps(encode_value(value), separators=(",", ":"), sort_keys=True)


def compensating_query():
    """Three terms of one shape: unbound, one operand bound, negated."""
    view = make_view()
    query = view.as_query()
    bound = query.substitute("r1", insert("r1", (7, 2)).signed_tuple())
    return query + bound - bound.substitute("r2", insert("r2", (2, 8)).signed_tuple())


class TestEncodeOnce:
    """``encode_text`` is ``canonical_json(encode_value(x))`` that keeps
    what it rendered: a query's text with the query, a view's contents
    with the view.  Same bytes; the work is what these tests count."""

    def count_calls(self, monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_text_path_equals_the_definition(self):
        query = compensating_query()
        _, request = algorithm_mid_protocol("eca").pending_requests()[0]
        values = [
            None, True, 1, -1, 2.5, "t\u00e9xt\"", (), [], {},
            (1, [2, (3,)], {"k": (4,)}),
            {1: query, "nested": [query, (query, {2: query})], (1, 2): None},
            query, make_view(), Query([compensating_query().terms[1]]),
            SignedBag.from_rows([(1, 2)]), insert("r1", (9, 9)).signed_tuple(),
            UpdateNotification(insert("r1", (9, 9)), 4),
            request, QueryRequest(7, query),
            QueryAnswer(7, SignedBag.from_rows([(9, 5)])), RefreshRequest(2),
        ]
        for value in values:
            expected = reference_text(value)
            assert encode_text(value) == expected  # cold
            assert encode_text(value) == expected  # from the memo
        assert encode_text(Query()) == reference_text(Query())
        with pytest.raises(CodecError):
            encode_text({"k": [object()]})

    def test_equal_queries_built_apart_render_alike(self):
        # The twin shares no shape and no memo with the original.
        query = compensating_query()
        twin = decode_value(json.loads(encode_text(query)))
        assert twin.terms[0].shape is not query.terms[0].shape
        assert encode_text(twin) == encode_text(query) == reference_text(query)

    def test_a_query_derived_from_an_encoded_one_renders_its_own_terms(self):
        # ``encoded`` stands for the query it was rendered from: a query
        # built from that one (sum, difference, negation, substitution,
        # either half of a partition) must start without it.
        query = compensating_query()
        encode_text(query)
        local, remote = query.partition()
        update = insert("r1", (2, 3)).signed_tuple()
        derived = {
            "+": query + remote,
            "-": query - local,
            "neg": -query,
            "substitute": query.substitute("r1", update),
            "fully bound": local,
            "shipped": remote,
        }
        for how, value in derived.items():
            assert value.terms and value.terms != query.terms, how
            fresh = encode_text(Query(value.terms))
            assert encode_text(value) == fresh == reference_text(value), how

    def test_pending_query_is_rendered_once_across_twenty_snapshots(
        self, tmp_path, monkeypatch
    ):
        algorithm = algorithm_mid_protocol("eca")
        (query,) = algorithm.uqs.values()
        rendered = self.count_calls(monkeypatch, codec, "_bindings_text")
        wal = WriteAheadLog(str(tmp_path))
        for n in range(20):
            wal.append({"n": n})
            wal.snapshot(algorithm)
        wal.close()
        assert [term for (term,) in rendered] == list(query.terms)
        _, payload = read_latest_snapshot(str(tmp_path))
        assert dumps_algorithm(decode_algorithm(payload)) == dumps_algorithm(algorithm)

    def test_wire_frame_and_snapshot_share_one_rendering(self, tmp_path, monkeypatch):
        algorithm = algorithm_mid_protocol("eca")
        _, request = algorithm.pending_requests()[0]
        rendered = self.count_calls(monkeypatch, codec, "_bindings_text")
        frame = create_codec("frame").encode(request)
        assert len(rendered) == len(request.query.terms)
        assert request.query.encoded.encode("utf-8") in frame
        wal = WriteAheadLog(str(tmp_path))
        lsn = wal.snapshot(algorithm)
        wal.close()
        assert len(rendered) == len(request.query.terms)
        with open(os.path.join(str(tmp_path), _snapshot_name(lsn))) as handle:
            # A UQS entry is the query's text, quoted (codec v6).
            assert json.dumps(request.query.encoded) in handle.read()

    def test_shape_is_rendered_once_per_shape_not_once_per_query(self, monkeypatch):
        rendered = self.count_calls(monkeypatch, codec, "_encode_shape")
        query = compensating_query()
        later = query - query.substitute("r2", insert("r2", (2, 9)).signed_tuple())
        assert {id(term.shape) for term in (query + later).terms} == {
            id(query.terms[0].shape)
        }
        texts = [encode_text(q) for q in (query, later, query + later)]
        assert [shape for (shape,) in rendered] == [query.terms[0].shape]
        entry = query.terms[0].shape.encoded
        assert all(text.count(entry) == 1 for text in texts)

    def test_view_contents_are_rendered_once_per_version(self, monkeypatch):
        algorithm = algorithm_mid_protocol("eca")
        sorted_out = self.count_calls(monkeypatch, MaterializedView, "contents_pairs")
        first = dumps_algorithm(algorithm, validate=False)
        assert dumps_algorithm(algorithm, validate=False) == first
        assert len(sorted_out) == 1
        algorithm.mv.apply_delta(SignedBag.from_rows([(40, 41)]))
        second = dumps_algorithm(algorithm, validate=False)
        assert len(sorted_out) == 2
        assert second != first and loads_algorithm(second).view_state() == (
            algorithm.view_state()
        )
        assert second == dumps_algorithm(loads_algorithm(second), validate=False)

    @pytest.mark.parametrize("name", ["eca-local", "eca-key"])
    def test_key_delete_and_replace_reach_the_next_snapshot(self, name):
        """The two writers besides ``apply_delta``: ECA-Local key-deletes
        from the installed view, ECA-Key installs COLLECT by ``replace``."""
        source = MemorySource(SCHEMAS, INITIAL)
        view = make_view()
        algorithm = create_algorithm(name, view, evaluate_view(view, source.snapshot()))
        before = dumps_algorithm(algorithm)
        assert algorithm.mv.encoded_contents is not None
        update = delete("r1", (1, 2))
        source.apply_update(update)
        assert algorithm.on_update("source", UpdateNotification(update, 1)) == []
        after = dumps_algorithm(algorithm)
        assert after != before
        assert loads_algorithm(after).view_state() == evaluate_view(
            view, source.snapshot()
        )


#: One message of each kind the warehouse logs, built fresh per call.
MESSAGES = {
    "update": lambda: UpdateNotification(insert("r1", (7, 2)), 1),
    "batch": lambda: UpdateBatch(
        (
            UpdateNotification(insert("r1", (7, 2)), 1),
            UpdateNotification(delete("r2", (2, 5)), 2),
        )
    ),
    "answer": lambda: QueryAnswer(3, SignedBag({(1, 5): 1, (2, 6): -2})),
    "query": lambda: QueryRequest(4, compensating_query()),
}


class TestMessagesRenderedOnce:
    """A message is rendered once (``Message.encoded``): its wire frame
    and its WAL ``recv`` record splice that text, byte for byte what the
    tree path makes of it."""

    def recv_line(self, directory, message):
        wal = WriteAheadLog(str(directory))
        wal.append({"channel": "source->wh", "origin": "source", "message": message})
        wal.close()
        with open(os.path.join(str(directory), WAL_FILENAME), encoding="utf-8") as handle:
            return handle.read()

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    def test_the_frame_and_the_recv_record_are_the_tree_paths_bytes(self, kind, tmp_path):
        message = MESSAGES[kind]()
        tree = canonical_json(encode_value(message))
        frame = create_codec("frame").encode(message)
        assert frame[5:] == tree.encode("utf-8")  # past the 5-byte header
        assert message.encoded == tree
        line = self.recv_line(tmp_path / "framed", message)
        assert f'"message":{tree},"origin":"source"' in line
        (record,), torn = read_records(str(tmp_path / "framed"))
        assert torn == 0 and decode_value(record["data"]["message"]) == message
        # A message no frame rendered first logs the same line.
        assert self.recv_line(tmp_path / "unframed", MESSAGES[kind]()) == line

    def test_the_recv_record_reuses_the_frames_rendering(self, tmp_path, monkeypatch):
        message = MESSAGES["answer"]()
        create_codec("frame").encode(message)
        rendered = TestEncodeOnce.count_calls(self, monkeypatch, codec, "encode_value")
        self.recv_line(tmp_path, message)
        assert rendered == []

    def test_the_memo_is_no_field(self):
        message, twin = MESSAGES["answer"](), MESSAGES["answer"]()
        encode_text(message)
        assert message.encoded is not None and twin.encoded is None
        assert message == twin and hash(message) == hash(twin)


class TestColumnBags:
    """Codec v6: a bag whose rows are tuples of JSON scalars, all of one
    width, is one list per column plus the counts; any other bag stays
    ``[row, count]`` pairs.  A column payload is checked a column at a
    time and read back as the bag its pairs make, and a malformed one is
    a ``CodecError`` wherever it is read — never a bare exception."""

    GOOD = {"$": "bag", "columns": [[1, 2], ["a", None]], "counts": [1, -2]}

    def test_scalar_rows_go_as_columns(self):
        bag = SignedBag({(1, "a"): 1, (2, None): -2})
        assert encode_value(bag) == self.GOOD
        assert encode_text(bag) == canonical_json(self.GOOD)
        assert decode_value(self.GOOD) == bag

    @pytest.mark.parametrize(
        "bag",
        [
            SignedBag(),  # no row
            SignedBag({(): 2}),  # width 0
            SignedBag({(1,): 1, (1, 2): 1}),  # two widths
            SignedBag({((1, 2), 3): 1}),  # a nested tuple
        ],
        ids=["empty", "width-0", "two-widths", "nested"],
    )
    def test_other_bags_go_as_pairs(self, bag):
        data = encode_value(bag)
        assert set(data) == {"$", "pairs"}
        assert decode_value(data) == bag

    MALFORMED = {
        "ragged-columns": ([[1, 2], ["a"]], [1, 1]),
        "columns-longer-than-counts": ([[1, 2], ["a", "b"]], [1]),
        "zero-count": ([[1, 2]], [1, 0]),
        "float-count": ([[1, 2]], [1, 1.0]),
        "bool-count": ([[1, 2]], [1, True]),
        "repeated-row": ([[1, 1], ["a", "a"]], [1, 2]),
        "list-cell": ([[1, [2]]], [1, 1]),
        "tagged-cell": ([[1, {"$": "tuple", "items": [2]}]], [1, 1]),
        "width-0": ([], [1]),
        "no-row": ([[]], []),
        "columns-not-a-list": ("12", [1, 1]),
        "counts-not-a-list": ([[1, 2]], {"n": 2}),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_a_malformed_column_payload_is_a_codec_error(self, case):
        columns, counts = self.MALFORMED[case]
        bad = {"$": "bag", "columns": columns, "counts": counts}
        delta = {**bad, "$": "bag.delta"}
        for data in (
            bad,
            {"$": "msg.answer", "id": 1, "answer": bad},
            {"$": "dict", "items": [["delta", bad]]},  # an algorithm's pending bag
            {"$": "bag.chain", "base": self.GOOD, "changes": [delta]},
        ):
            with pytest.raises(CodecError):
                decode_value(data)

    #: Columns are checked a whole column at a time; each refusal is the
    #: codec's own error, naming what is wrong, not a wrapped one.
    NAMED = {
        "bool-count": ([[1, 2]], [1, True], r"count is not an int: True"),
        "float-count": ([[1, 2]], [1, 1.0], r"count is not an int: 1\.0"),
        "zero-count": ([[1, 2]], [1, 0], r"zero count \(row 1\)"),
        "repeated-row": ([[1, 1], ["a", "a"]], [1, 2], r"repeats a row: 2 counts, 1 rows"),
        "cancelled-row": ([[1, 1]], [1, -1], r"repeats a row"),
        "ragged-columns": ([[1, 2], ["a"]], [1, 1], r"ragged columns"),
        "no-column": ([], [1], r"one or more columns"),
    }

    @pytest.mark.parametrize("case", sorted(NAMED))
    def test_a_malformed_column_payload_names_its_fault(self, case):
        columns, counts, fault = self.NAMED[case]
        bad = {"$": "bag", "columns": columns, "counts": counts}
        delta = {**bad, "$": "bag.delta"}
        for data in (bad, {"$": "bag.chain", "base": self.GOOD, "changes": [delta]}):
            with pytest.raises(CodecError, match=fault) as refused:
                decode_value(data)
            assert not str(refused.value).startswith("malformed")
            assert refused.value.__cause__ is None

    def test_a_column_payload_decodes_to_the_bag_its_pairs_make(self):
        columns, counts = [[3, 1, 2], ["c", "a", None]], [2, -1, 1]
        bag = decode_value({"$": "bag", "columns": columns, "counts": counts})
        assert bag == SignedBag.from_pairs(zip(zip(*columns), counts))
        assert bag.to_pairs() == [((1, "a"), -1), ((2, None), 1), ((3, "c"), 2)]
        bag.add((1, "a"), 1)  # a decoded bag is a bag like any other
        assert bag == SignedBag({(3, "c"): 2, (2, None): 1})


class TestBagPairs:
    """SignedBag.to_pairs/from_pairs — the codec's shared bag form."""

    def test_roundtrip(self):
        bag = SignedBag.from_rows([(1, 2), (1, 2)])
        bag.add((5, 6), -1)  # signed bags carry negative counts
        assert SignedBag.from_pairs(bag.to_pairs()) == bag

    def test_pairs_are_sorted_and_stable(self):
        a = SignedBag.from_rows([(2,), (1,)])
        b = SignedBag.from_rows([(1,), (2,)])
        assert a.to_pairs() == b.to_pairs()

    def test_from_pairs_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SignedBag.from_pairs([((1,), 0)])

    def test_from_pairs_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SignedBag.from_pairs([((1,), 1), ((1,), 2)])

    def test_from_pairs_rejects_bool_count(self):
        with pytest.raises(TypeError):
            SignedBag.from_pairs([((1,), True)])

    def test_nonnegative_mode(self):
        with pytest.raises(ValueError):
            SignedBag.from_pairs([((1,), -1)], nonnegative=True)
        assert SignedBag.from_pairs([((1,), -1)]).multiplicity((1,)) == -1
