"""Unit tests for SignedBag — the paper's relations of signed tuples."""

import pytest

from repro.relational.bag import SignedBag
from repro.relational.tuples import MINUS


class TestConstruction:
    def test_empty(self):
        bag = SignedBag()
        assert bag.is_empty()
        assert not bag
        assert len(bag) == 0

    def test_from_rows_keeps_duplicates(self):
        bag = SignedBag.from_rows([(1,), (1,), (2,)])
        assert bag.multiplicity((1,)) == 2
        assert bag.multiplicity((2,)) == 1
        assert bag.total_count() == 3

    def test_singleton(self):
        assert SignedBag.singleton((1, 2)).multiplicity((1, 2)) == 1
        assert SignedBag.singleton((1, 2), MINUS).multiplicity((1, 2)) == -1

    def test_counts_constructor_cancels_zero(self):
        bag = SignedBag({(1,): 0, (2,): 3})
        assert (1,) not in bag
        assert bag.multiplicity((2,)) == 3

    def test_copy_is_independent(self):
        bag = SignedBag.from_rows([(1,)])
        clone = bag.copy()
        clone.add((1,), 5)
        assert bag.multiplicity((1,)) == 1


class TestPaperOperators:
    def test_plus_is_pointwise_addition(self):
        a = SignedBag({(1,): 2, (2,): -1})
        b = SignedBag({(1,): -1, (3,): 1})
        c = a + b
        assert c.multiplicity((1,)) == 1
        assert c.multiplicity((2,)) == -1
        assert c.multiplicity((3,)) == 1

    def test_minus_is_plus_of_negation(self):
        a = SignedBag({(1,): 2})
        b = SignedBag({(1,): 1, (2,): 1})
        assert a - b == a + (-b)
        assert (a - b).multiplicity((1,)) == 1
        assert (a - b).multiplicity((2,)) == -1

    def test_negation(self):
        a = SignedBag({(1,): 2, (2,): -3})
        assert (-a).multiplicity((1,)) == -2
        assert (-a).multiplicity((2,)) == 3
        assert -(-a) == a

    def test_pos_neg_decomposition(self):
        a = SignedBag({(1,): 2, (2,): -3})
        assert a.pos() == SignedBag({(1,): 2})
        assert a.neg() == SignedBag({(2,): 3})
        # r = pos(r) - neg(r), the paper's decomposition.
        assert a == a.pos() - a.neg()

    def test_example3_deletion_application(self):
        # MV = ([1,3]); answer A = (-[1,3]) should empty the view.
        mv = SignedBag.from_rows([(1, 3)])
        answer = SignedBag.singleton((1, 3), MINUS)
        assert (mv + answer).is_empty()

    def test_cancellation_removes_entries(self):
        a = SignedBag({(1,): 1})
        b = SignedBag({(1,): -1})
        result = a + b
        assert result.is_empty()
        assert result.distinct_count() == 0


class TestInspection:
    def test_counts(self):
        bag = SignedBag({(1,): 2, (2,): -1})
        assert bag.total_count() == 3
        assert bag.distinct_count() == 2

    def test_is_nonnegative(self):
        assert SignedBag({(1,): 2}).is_nonnegative()
        assert not SignedBag({(1,): -1}).is_nonnegative()
        assert SignedBag().is_nonnegative()

    def test_contains(self):
        bag = SignedBag({(1, 2): 1})
        assert (1, 2) in bag
        assert (9, 9) not in bag

    def test_expand_rows_orders_and_repeats(self):
        bag = SignedBag({(2,): 1, (1,): 2})
        assert bag.expand_rows() == [(1,), (1,), (2,)]

    def test_expand_rows_rejects_negative(self):
        with pytest.raises(ValueError):
            SignedBag({(1,): -1}).expand_rows()

    def test_rows_iterates_distinct(self):
        bag = SignedBag({(1,): 5})
        assert list(bag.rows()) == [(1,)]

    def test_equality_and_hash(self):
        a = SignedBag({(1,): 1, (2,): 2})
        b = SignedBag({(2,): 2, (1,): 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != SignedBag({(1,): 1})


class TestMutation:
    def test_add_accumulates(self):
        bag = SignedBag()
        bag.add((1,), 2)
        bag.add((1,), -1)
        assert bag.multiplicity((1,)) == 1

    def test_add_zero_is_noop(self):
        bag = SignedBag()
        bag.add((1,), 0)
        assert bag.is_empty()

    def test_add_bag(self):
        bag = SignedBag({(1,): 1})
        bag.add_bag(SignedBag({(1,): 1, (2,): -1}))
        assert bag.multiplicity((1,)) == 2
        assert bag.multiplicity((2,)) == -1

    def test_discard_row_removes_all_occurrences(self):
        bag = SignedBag({(1,): 5})
        bag.discard_row((1,))
        assert bag.is_empty()

    def test_clear(self):
        bag = SignedBag({(1,): 5})
        bag.clear()
        assert bag.is_empty()


class TestRepr:
    def test_empty_repr(self):
        assert "empty" in repr(SignedBag())

    def test_repr_shows_signs_and_multiplicity(self):
        text = repr(SignedBag({(1,): 2, (2,): -1}))
        assert "+[1]x2" in text
        assert "-[2]" in text


class TestDuplicateRetention:
    def test_counted_deltas_keep_what_a_tuple_list_keeps(self):
        """The counted bag against the naive alternative — a list of
        tuples, deletions by linear scan — over one delta stream."""
        rows = [(i % 50, i % 7) for i in range(400)]
        deltas = [SignedBag.from_rows(rows)]
        deltas += [SignedBag({rows[i]: -1}) for i in range(0, 400, 2)]
        deltas += [SignedBag({rows[i]: 1}) for i in range(0, 400, 4)]
        counted = SignedBag()
        listed = []
        for delta in deltas:
            counted.add_bag(delta)
            for row, count in delta.items():
                if count > 0:
                    listed.extend([row] * count)
                for _ in range(-count):
                    listed.remove(row)
        assert counted.is_nonnegative()
        assert sorted(listed) == sorted(counted.expand_rows())
