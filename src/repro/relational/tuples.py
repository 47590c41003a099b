"""Signed tuples (Section 4.1).

The paper attaches a sign to every tuple: ``+`` for existing or inserted
tuples, ``-`` for deleted tuples.  Signs propagate through relational
operators: selection and projection preserve the sign, and the sign of a
product tuple is the product of its factors' signs (the paper's sign
tables).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import SignError

PLUS = 1
MINUS = -1

_VALID_SIGNS = (PLUS, MINUS)


def check_sign(sign: int) -> int:
    """Validate a sign value, returning it unchanged.

    Signs are the integers +1 and -1 exactly; equal-comparing values of
    other types (1.0, True) are rejected so sign arithmetic stays integral.
    """
    if type(sign) is not int or sign not in _VALID_SIGNS:
        raise SignError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def combine_signs(*signs: int) -> int:
    """Sign of a product tuple: the product of the factor signs."""
    result = PLUS
    for sign in signs:
        result *= check_sign(sign)
    return result


def sign_symbol(sign: int) -> str:
    """Render a sign the way the paper does (``+``/``-``)."""
    return "+" if check_sign(sign) == PLUS else "-"


class SignedTuple:
    """An immutable tuple of values together with a sign.

    ``SignedTuple((1, 2))`` is the paper's ``+[1,2]``;
    ``SignedTuple((1, 2), MINUS)`` is ``-[1,2]``.
    """

    __slots__ = ("values", "sign")

    def __init__(self, values: Sequence[object], sign: int = PLUS) -> None:
        self.values: Tuple[object, ...] = tuple(values)
        self.sign = check_sign(sign)

    def negate(self) -> "SignedTuple":
        """The same tuple with its sign flipped (the unary ``-``)."""
        return SignedTuple(self.values, -self.sign)

    @property
    def arity(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedTuple):
            return NotImplemented
        return self.values == other.values and self.sign == other.sign

    def __hash__(self) -> int:
        return hash((self.values, self.sign))

    def __neg__(self) -> "SignedTuple":
        return self.negate()

    def __repr__(self) -> str:
        inner = ",".join(repr(v) for v in self.values)
        return f"{sign_symbol(self.sign)}[{inner}]"
