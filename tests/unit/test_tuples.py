"""Unit tests for signed tuples and the sign algebra of Section 4.1."""

import pytest

from repro.errors import SignError
from repro.relational.tuples import (
    MINUS,
    PLUS,
    SignedTuple,
    check_sign,
    combine_signs,
    sign_symbol,
)


class TestSigns:
    def test_check_sign_accepts_valid(self):
        assert check_sign(PLUS) == PLUS
        assert check_sign(MINUS) == MINUS

    @pytest.mark.parametrize("bad", [0, 2, -2, "plus", None, 1.0])
    def test_check_sign_rejects_invalid(self, bad):
        with pytest.raises(SignError):
            check_sign(bad)

    def test_combine_signs_matches_paper_table(self):
        # The paper's t1 x t2 sign table: ++ -> +, +- -> -, -- -> +, -+ -> -
        assert combine_signs(PLUS, PLUS) == PLUS
        assert combine_signs(PLUS, MINUS) == MINUS
        assert combine_signs(MINUS, MINUS) == PLUS
        assert combine_signs(MINUS, PLUS) == MINUS

    def test_combine_signs_n_ary(self):
        assert combine_signs(MINUS, MINUS, MINUS) == MINUS
        assert combine_signs() == PLUS

    def test_sign_symbol(self):
        assert sign_symbol(PLUS) == "+"
        assert sign_symbol(MINUS) == "-"


class TestSignedTuple:
    def test_default_sign_is_plus(self):
        t = SignedTuple((1, 2))
        assert t.sign == PLUS
        assert t.values == (1, 2)
        assert t.arity == 2

    def test_negate(self):
        t = SignedTuple((1, 2), MINUS)
        assert (-t).sign == PLUS
        assert (-t).values == (1, 2)
        assert t.negate() == -t

    def test_invalid_sign_rejected(self):
        with pytest.raises(SignError):
            SignedTuple((1,), 0)

    def test_equality_considers_sign(self):
        assert SignedTuple((1, 2)) == SignedTuple((1, 2))
        assert SignedTuple((1, 2)) != SignedTuple((1, 2), MINUS)
        assert hash(SignedTuple((1, 2))) == hash(SignedTuple([1, 2]))

    def test_repr_matches_paper_notation(self):
        assert repr(SignedTuple((1, 2))) == "+[1,2]"
        assert repr(SignedTuple((4, 2), MINUS)) == "-[4,2]"

    def test_values_are_immutable_tuple(self):
        t = SignedTuple([1, 2])
        assert isinstance(t.values, tuple)
