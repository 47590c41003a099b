"""Unit tests for the source substrates (in-memory and SQLite).

Both implementations are exercised through the same parametrized suite —
they must be observably identical — plus a few SQLite-specific tests for
SQL rendering details.
"""

import pytest

from repro.errors import SchemaError, UpdateError
from repro.relational.bag import SignedBag
from repro.relational.expressions import Query
from repro.relational.schema import RelationSchema
from repro.relational.tuples import MINUS, SignedTuple
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.sqlite import SQLiteSource
from repro.source.updates import delete, insert


@pytest.fixture
def schemas():
    return [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]


@pytest.fixture(params=["memory", "sqlite"])
def source(request, schemas):
    if request.param == "memory":
        src = MemorySource(schemas)
        yield src
    else:
        src = SQLiteSource(schemas)
        yield src
        src.close()


@pytest.fixture
def view(schemas):
    return View.natural_join("V", schemas, ["W"])


class TestUpdates:
    def test_insert_then_cardinality(self, source):
        source.apply_update(insert("r1", (1, 2)))
        source.apply_update(insert("r1", (1, 2)))
        assert source.cardinality("r1") == 2
        assert source.cardinality("r2") == 0

    def test_delete_removes_single_occurrence(self, source):
        source.apply_update(insert("r1", (1, 2)))
        source.apply_update(insert("r1", (1, 2)))
        source.apply_update(delete("r1", (1, 2)))
        assert source.cardinality("r1") == 1

    def test_delete_missing_tuple_raises(self, source):
        with pytest.raises(UpdateError):
            source.apply_update(delete("r1", (9, 9)))

    def test_unknown_relation_raises(self, source):
        with pytest.raises(SchemaError):
            source.apply_update(insert("zzz", (1,)))

    def test_arity_mismatch_raises(self, source):
        with pytest.raises(SchemaError):
            source.apply_update(insert("r1", (1,)))

    def test_load_bulk(self, source):
        source.load("r2", [(2, 3), (2, 4)])
        assert source.cardinality("r2") == 2


class TestSnapshot:
    def test_snapshot_contents(self, source):
        source.load("r1", [(1, 2), (1, 2)])
        snap = source.snapshot()
        assert snap["r1"].multiplicity((1, 2)) == 2
        assert snap["r2"].is_empty()

    def test_snapshot_is_detached(self, source):
        source.load("r1", [(1, 2)])
        snap = source.snapshot()
        source.apply_update(insert("r1", (9, 9)))
        assert snap["r1"].multiplicity((9, 9)) == 0


class TestEvaluation:
    def test_view_query(self, source, view):
        source.load("r1", [(1, 2), (4, 2)])
        source.load("r2", [(2, 3)])
        assert source.evaluate(view.as_query()) == SignedBag.from_rows([(1,), (4,)])

    def test_bound_tuple_query(self, source, view):
        source.load("r1", [(1, 2)])
        query = view.substitute("r2", SignedTuple((2, 3)))
        assert source.evaluate(query) == SignedBag.from_rows([(1,)])

    def test_negative_bound_tuple_sign_flows(self, source, view):
        source.load("r2", [(2, 3)])
        query = view.substitute("r1", SignedTuple((1, 2), MINUS))
        assert source.evaluate(query) == SignedBag.singleton((1,), MINUS)

    def test_multi_term_signed_query(self, source, view):
        # Q = V<U> - V<U> must cancel to the empty relation.
        source.load("r1", [(1, 2)])
        q = view.substitute("r2", SignedTuple((2, 3)))
        assert source.evaluate(q - q).is_empty()

    def test_duplicates_preserved_in_answers(self, source, view):
        source.load("r1", [(1, 2)])
        source.load("r2", [(2, 3), (2, 4)])
        answer = source.evaluate(view.as_query())
        assert answer.multiplicity((1,)) == 2

    def test_empty_query(self, source):
        from repro.relational.expressions import empty_query

        assert source.evaluate(empty_query()).is_empty()


class TestNoneValues:
    """``None`` equals ``None`` at both sources (SQL's ``NULL = NULL`` does
    not: the SQLite source renders ``=`` as ``IS``)."""

    @pytest.fixture
    def loaded(self, source):
        source.load("r1", [(1, None), (2, 5)])
        source.load("r2", [(None, 7), (5, 8)])
        return source

    @pytest.fixture
    def wide(self, schemas):
        return View.natural_join("V", schemas, ["W", "Y"])

    def test_none_joins_none(self, loaded, wide):
        assert loaded.evaluate(wide.as_query()) == SignedBag.from_rows(
            [(1, 7), (2, 8)]
        )

    def test_bound_none_joins_stored_none(self, loaded, wide):
        query = wide.substitute("r1", SignedTuple((3, None)))
        assert loaded.evaluate(query) == SignedBag.from_rows([(3, 7)])

    def test_none_is_not_equal_to_a_value(self, loaded, schemas):
        from repro.relational.conditions import Attr, Comparison

        view = View(
            "D", schemas, ["W", "Y"], Comparison(Attr("r1.X"), "!=", Attr("r2.X"))
        )
        assert loaded.evaluate(view.as_query()) == SignedBag.from_rows(
            [(1, 8), (2, 7)]
        )

    def test_delete_row_holding_none(self, loaded):
        loaded.apply_update(delete("r1", (1, None)))
        assert loaded.cardinality("r1") == 1
        assert loaded.snapshot()["r1"] == SignedBag.from_rows([(2, 5)])


class TestClassesOfTerms:
    """A multi-term query evaluates per class of like terms at both
    sources; the answer is the sum of its terms."""

    def test_many_terms_binding_one_operand(self, source, view):
        source.load("r1", [(1, 2), (4, 2), (5, 3)])
        source.load("r2", [(2, 3), (3, 9)])
        terms = []
        for x, sign in [(2, 1), (3, 1), (2, MINUS), (7, 1)]:
            terms.extend(view.substitute("r2", SignedTuple((x, 0), sign)).terms)
        terms.append(terms[0].negate())
        query = Query(terms)
        assert source.evaluate(query) == query.evaluate(source.snapshot())
        assert source.evaluate(query) == SignedBag({(5,): 1, (1,): -1, (4,): -1})

    def test_class_larger_than_one_statement_holds(self, schemas, view):
        # 2 values + 1 weight per term: 400 terms need two statements.
        rows = [(w, w % 7) for w in range(400)]
        query = Query(
            [
                term
                for row in rows
                for term in view.substitute("r1", SignedTuple(row)).terms
            ]
        )
        with SQLiteSource(schemas, {"r2": [(x, 0) for x in range(5)]}) as src:
            answer = src.evaluate(query)
        assert answer == SignedBag.from_rows([(w,) for w, x in rows if x < 5])


class TestBatchCache:
    """``MemorySource`` keeps each relation's columnar transpose, and the
    bucket maps the engine probed on it, and ``apply_update`` maintains
    both in place."""

    def test_update_maintains_the_touched_relation_in_place(self, schemas, view):
        src = MemorySource(schemas, {"r1": [(1, 2)], "r2": [(2, 3), (2, 4)]})
        # r2 bound: r1 is probed on X (its position 1).
        probe = view.substitute("r2", SignedTuple((2, 5)))
        assert src.evaluate(probe) == SignedBag.from_rows([(1,)])
        assert src.evaluate(view.as_query()) == SignedBag({(1,): 2})
        kept = dict(src._batches)
        buckets = src._indexes["r1"][(1,)]
        src.apply_update(insert("r1", (4, 2)))
        src.apply_update(insert("r1", (1, 2)))
        assert src._batches == kept and src._indexes["r1"][(1,)] is buckets
        assert kept["r1"].counts == [2, 1] and buckets == {2: [0, 1]}
        assert src.evaluate(probe) == SignedBag({(1,): 2, (4,): 1})
        src.apply_update(delete("r1", (4, 2)))
        assert kept["r1"].counts == [2, 0] and buckets == {2: [0, 1]}
        assert src.evaluate(probe) == SignedBag({(1,): 2})
        # Deleted down to nothing, more dead rows than live: dropped, and
        # rebuilt from the relation by the next probe.
        src.apply_update(delete("r2", (2, 3)))
        src.apply_update(delete("r2", (2, 4)))
        assert "r2" not in src._batches and "r2" not in src._indexes
        assert src.evaluate(view.as_query()).is_empty()
        assert src._batches["r1"] is kept["r1"]
        # The rebuilt batch is maintained from scratch.
        src.apply_update(insert("r2", (2, 4)))
        src.apply_update(insert("r2", (2, 3)))
        assert src._batches["r2"].to_bag() == src.relation("r2")
        assert src.evaluate(view.as_query()) == SignedBag({(1,): 4})

    def test_a_delete_stream_keeps_the_batch_bounded(self, schemas, view):
        src = MemorySource(schemas, {"r1": [(1, 2), (2, 2), (3, 5)], "r2": [(2, 3)]})
        probe = view.substitute("r2", SignedTuple((2, 9)))
        expected = SignedBag.from_rows([(1,), (2,)])
        for w in range(10, 10_010):
            src.apply_update(insert("r1", (w, 2)))
            assert src.evaluate(probe) == expected + SignedBag.from_rows([(w,)])
            src.apply_update(delete("r1", (w, 2)))
            assert src.evaluate(probe) == expected
            batch = src._batches["r1"]
            live = sum(1 for count in batch.counts if count)
            assert live == 3 and len(batch) <= 2 * live + 1
            assert sum(map(len, src._indexes["r1"][(1,)].values())) == len(batch)

    def test_load_after_evaluation_is_seen(self, schemas, view):
        src = MemorySource(schemas, {"r1": [(1, 2)]})
        assert src.evaluate(view.as_query()).is_empty()
        src.load("r2", [(2, 3), (2, 4)])
        assert src.evaluate(view.as_query()) == SignedBag({(1,): 2})


class TestCatalog:
    def test_duplicate_relation_names_rejected(self, schemas):
        with pytest.raises(SchemaError):
            MemorySource(schemas + [RelationSchema("r1", ("A",))])

    def test_schema_for(self, source):
        assert source.schema_for("r1").attributes == ("W", "X")
        with pytest.raises(SchemaError):
            source.schema_for("nope")

    def test_initial_data_constructor(self, schemas):
        src = MemorySource(schemas, {"r1": [(1, 2)]})
        assert src.cardinality("r1") == 1
        sq = SQLiteSource(schemas, {"r1": [(1, 2)]})
        assert sq.cardinality("r1") == 1
        sq.close()

    def test_repr(self, source):
        assert "r1" in repr(source)


class TestMemorySpecific:
    def test_relation_accessor_copies(self, schemas):
        src = MemorySource(schemas, {"r1": [(1, 2)]})
        bag = src.relation("r1")
        bag.add((9, 9), 1)
        assert src.cardinality("r1") == 1

    def test_relation_unknown_raises(self, schemas):
        with pytest.raises(SchemaError):
            MemorySource(schemas).relation("zzz")


class TestSQLiteSpecific:
    def test_context_manager_closes(self, schemas):
        with SQLiteSource(schemas) as src:
            src.load("r1", [(1, 2)])
            assert src.cardinality("r1") == 1

    def test_string_values_roundtrip(self):
        schema = RelationSchema("items", ("name", "qty"))
        with SQLiteSource([schema]) as src:
            src.load("items", [("widget", 3), ("gadget", 1)])
            snap = src.snapshot()
            assert snap["items"].multiplicity(("widget", 3)) == 1

    def test_quoted_identifiers(self):
        # Attribute names that collide with SQL keywords must be quoted.
        schema = RelationSchema("t", ("select_", "from_"))
        with SQLiteSource([schema]) as src:
            src.load("t", [(1, 2)])
            assert src.cardinality("t") == 1

    def test_fully_bound_term_evaluates(self, schemas, view):
        # The source can evaluate a fully bound term (a one-row VALUES
        # table only), even though the warehouse normally never ships one.
        q = view.substitute("r1", SignedTuple((1, 2))).substitute(
            "r2", SignedTuple((2, 3))
        )
        with SQLiteSource(schemas) as src:
            assert src.evaluate(q) == SignedBag.from_rows([(1,)])
