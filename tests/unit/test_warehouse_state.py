"""Unit tests for the materialized view store and key-delete."""

import pytest

from repro.errors import ViewStateError
from repro.relational.bag import SignedBag
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.warehouse.state import MaterializedView, key_delete


@pytest.fixture
def keyed_view():
    schemas = [
        RelationSchema("r1", ("W", "X"), key=("W",)),
        RelationSchema("r2", ("X", "Y"), key=("Y",)),
    ]
    return View.natural_join("V", schemas, ["W", "Y"])


class TestBasics:
    def test_starts_empty(self, view_w):
        mv = MaterializedView(view_w)
        assert mv.is_empty()
        assert mv.rows() == []
        assert mv.cardinality() == 0

    def test_initial_contents_copied(self, view_w):
        initial = SignedBag.from_rows([(1,)])
        mv = MaterializedView(view_w, initial)
        initial.add((9,), 1)
        assert mv.multiplicity((9,)) == 0

    def test_negative_initial_rejected(self, view_w):
        with pytest.raises(ViewStateError):
            MaterializedView(view_w, SignedBag({(1,): -1}))

    def test_rows_expand_duplicates(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 2}))
        assert mv.rows() == [(1,), (1,)]

    def test_as_bag_detached(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 1}))
        bag = mv.as_bag()
        bag.add((1,), 5)
        assert mv.multiplicity((1,)) == 1

    def test_equality(self, view_w):
        a = MaterializedView(view_w, SignedBag({(1,): 1}))
        b = MaterializedView(view_w, SignedBag({(1,): 1}))
        assert a == b


class TestApplyDelta:
    def test_additions_and_removals(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 1}))
        mv.apply_delta(SignedBag({(1,): -1, (2,): 2}))
        assert mv.multiplicity((1,)) == 0
        assert mv.multiplicity((2,)) == 2

    def test_strict_rejects_negative_result(self, view_w):
        mv = MaterializedView(view_w)
        with pytest.raises(ViewStateError):
            mv.apply_delta(SignedBag({(1,): -1}))

    def test_non_strict_clamps(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 1}))
        mv.apply_delta(SignedBag({(1,): -3, (2,): 1}), on_negative="clamp")
        assert mv.multiplicity((1,)) == 0
        assert mv.multiplicity((2,)) == 1

    def test_strict_failure_leaves_state_unchanged(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 1}))
        with pytest.raises(ViewStateError):
            mv.apply_delta(SignedBag({(1,): -2}))
        assert mv.multiplicity((1,)) == 1


class TestReplace:
    def test_replace_installs_copy(self, view_w):
        mv = MaterializedView(view_w, SignedBag({(1,): 1}))
        fresh = SignedBag({(2,): 1})
        mv.replace(fresh)
        fresh.add((3,), 1)
        assert mv.multiplicity((2,)) == 1
        assert mv.multiplicity((3,)) == 0
        assert mv.multiplicity((1,)) == 0

    def test_replace_rejects_negative(self, view_w):
        mv = MaterializedView(view_w)
        with pytest.raises(ViewStateError):
            mv.replace(SignedBag({(1,): -1}))


class TestEncodedContents:
    """``encoded_contents`` is the durability codec's rendering of the
    contents, kept with the view so that an unchanged view is rendered
    once.  It stands for ``_contents``: every write must drop it."""

    STALE = "[rendered before the write]"

    def rendered(self, view, bag):
        mv = MaterializedView(view, bag)
        assert mv.encoded_contents is None
        mv.encoded_contents = self.STALE
        return mv

    @pytest.mark.parametrize("policy", ["raise", "clamp", "allow"])
    def test_apply_delta_drops_it(self, view_w, policy):
        mv = self.rendered(view_w, SignedBag({(1,): 1}))
        mv.apply_delta(SignedBag({(2,): 1}), on_negative=policy)
        assert mv.encoded_contents is None

    @pytest.mark.parametrize("policy", ["clamp", "allow"])
    def test_apply_delta_through_a_negative_drops_it(self, view_w, policy):
        mv = self.rendered(view_w, SignedBag({(1,): 1}))
        mv.apply_delta(SignedBag({(1,): -2}), on_negative=policy)
        assert mv.encoded_contents is None

    def test_raising_apply_delta_keeps_it_with_the_contents(self, view_w):
        mv = self.rendered(view_w, SignedBag({(1,): 1}))
        with pytest.raises(ViewStateError):
            mv.apply_delta(SignedBag({(1,): -2}))
        with pytest.raises(ValueError):
            mv.apply_delta(SignedBag({(2,): 1}), on_negative="no-such-policy")
        assert mv.as_bag() == SignedBag({(1,): 1})
        assert mv.encoded_contents == self.STALE

    def test_replace_drops_it(self, view_w):
        mv = self.rendered(view_w, SignedBag({(1,): 1}))
        with pytest.raises(ViewStateError):
            mv.replace(SignedBag({(1,): -1}))
        assert mv.encoded_contents == self.STALE
        mv.replace(SignedBag({(2,): 1}))
        assert mv.encoded_contents is None

    def test_key_delete_drops_it(self, keyed_view):
        mv = self.rendered(keyed_view, SignedBag.from_rows([(1, 3), (2, 3)]))
        assert mv.key_delete("r1", (1, 99)) == 1
        assert mv.encoded_contents is None


class TestKeyDelete:
    def test_deletes_matching_key_tuples(self, keyed_view):
        mv = MaterializedView(
            keyed_view, SignedBag.from_rows([(1, 3), (1, 4), (2, 3)])
        )
        removed = mv.key_delete("r1", (1, 99))  # key of r1 is W=1
        assert removed == 2
        assert sorted(mv.rows()) == [(2, 3)]

    def test_deletes_by_second_relation_key(self, keyed_view):
        mv = MaterializedView(
            keyed_view, SignedBag.from_rows([(1, 3), (1, 4), (2, 3)])
        )
        removed = mv.key_delete("r2", (99, 3))  # key of r2 is Y=3
        assert removed == 2
        assert sorted(mv.rows()) == [(1, 4)]

    def test_no_match_removes_nothing(self, keyed_view):
        mv = MaterializedView(keyed_view, SignedBag.from_rows([(1, 3)]))
        assert mv.key_delete("r1", (7, 7)) == 0
        assert mv.rows() == [(1, 3)]

    def test_standalone_key_delete_on_bag(self, keyed_view):
        bag = SignedBag.from_rows([(1, 3), (2, 3)])
        removed = key_delete(bag, keyed_view, "r2", (0, 3))
        assert removed == 2
        assert bag.is_empty()

    def test_key_delete_requires_projected_key(self, keyed_view):
        from repro.errors import SchemaError

        schemas = [
            RelationSchema("r1", ("W", "X"), key=("W",)),
            RelationSchema("r2", ("X", "Y"), key=("Y",)),
        ]
        view = View.natural_join("V2", schemas, ["W"])  # Y not projected
        mv = MaterializedView(view)
        with pytest.raises(SchemaError):
            mv.key_delete("r2", (2, 3))
