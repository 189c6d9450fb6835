"""Exact scalars: arbitrary-precision rationals and the real quadratic field Q(sqrt 3).

Every coordinate in this library is a ``QSqrt3`` value (a + b*sqrt(3))/q with
integer a, b and positive integer q.  Plain rationals embed with b = 0, so a
single exact sign routine, ``sqrt3_sign``, decides every geometric predicate,
whether it is evaluated on ``QSqrt3`` objects or on coordinates ``lift``-ed to
integer pairs over a common denominator.  No floating point is used anywhere
in a decision path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# Rationals are plain ``fractions.Fraction``: always reduced, positive
# denominator, structural equality and hashing.
Rat = Fraction

_SQRT3_RE = re.compile(
    r"""^\s*(?P<r>[+-]?\d+(?:/\d+)?)\s*
        (?:(?P<sign>[+-])\s*(?P<s>\d+(?:/\d+)?)\s*\*\s*sqrt3)?\s*$""",
    re.VERBOSE,
)


def sqrt3_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(3) for integers a, b, in {-1, 0, +1}."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    # Opposite signs: |a| vs |b|*sqrt(3) decided by squaring.
    aa = a * a
    bb3 = 3 * b * b
    if aa == bb3:  # would mean sqrt(3) rational
        raise ArithmeticError("impossible equality a^2 == 3 b^2 with b != 0")
    return sa if aa > bb3 else sb


def lift(values: Sequence[QSqrt3]) -> list[tuple[int, int]]:
    """Integer pairs (a, b) with value = (a + b*sqrt(3)) / d, one d > 0 for all."""
    d = 1
    for v in values:
        d = lcm(d, v._q)
    return [(v._a * (d // v._q), v._b * (d // v._q)) for v in values]


class QSqrt3:
    """An element (a + b*sqrt(3)) / q of Q(sqrt(3)), kept in lowest terms.

    Representation is unique (gcd(a, b, q) = 1, q > 0), so equality and
    hashing are structural.
    """

    __slots__ = ("_a", "_b", "_q")

    def __init__(self, a: int | Rat | QSqrt3 = 0, b: int | Rat = 0):
        if type(a) is int and b == 0:  # an integer is already in lowest terms
            self._a, self._b, self._q = a, 0, 1
            return
        if isinstance(a, QSqrt3):
            if b:
                raise TypeError("cannot combine QSqrt3 with an sqrt3 coefficient")
            self._a, self._b, self._q = a._a, a._b, a._q
            return
        ra = Fraction(a)
        rb = Fraction(b)
        q = ra.denominator * rb.denominator
        na = ra.numerator * rb.denominator
        nb = rb.numerator * ra.denominator
        g = gcd(gcd(abs(na), abs(nb)), q)
        self._a = na // g
        self._b = nb // g
        self._q = q // g

    @classmethod
    def _raw(cls, a: int, b: int, q: int) -> QSqrt3:
        # q may be negative or unreduced; normalizes.
        if q < 0:
            a, b, q = -a, -b, -q
        g = gcd(gcd(abs(a), abs(b)), q)
        if g > 1:
            a, b, q = a // g, b // g, q // g
        self = object.__new__(cls)
        self._a, self._b, self._q = a, b, q
        return self

    @property
    def r(self) -> Rat:
        """Rational part."""
        return Fraction(self._a, self._q)

    @property
    def s(self) -> Rat:
        """Coefficient of sqrt(3)."""
        return Fraction(self._b, self._q)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QSqrt3):
            return self._a == other._a and self._b == other._b and self._q == other._q
        if isinstance(other, (int, Fraction)):
            return self == QSqrt3(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._q))

    def __neg__(self) -> QSqrt3:
        return QSqrt3._raw(-self._a, -self._b, self._q)

    def __add__(self, other: QSqrt3 | int | Rat) -> QSqrt3:
        if not isinstance(other, QSqrt3):
            other = QSqrt3(other)
        return QSqrt3._raw(
            self._a * other._q + other._a * self._q,
            self._b * other._q + other._b * self._q,
            self._q * other._q,
        )

    __radd__ = __add__

    def __sub__(self, other: QSqrt3 | int | Rat) -> QSqrt3:
        if not isinstance(other, QSqrt3):
            other = QSqrt3(other)
        return QSqrt3._raw(
            self._a * other._q - other._a * self._q,
            self._b * other._q - other._b * self._q,
            self._q * other._q,
        )

    def __rsub__(self, other: int | Rat) -> QSqrt3:
        return QSqrt3(other) - self

    def __mul__(self, other: QSqrt3 | int | Rat) -> QSqrt3:
        if not isinstance(other, QSqrt3):
            other = QSqrt3(other)
        # (a1 + b1 s3)(a2 + b2 s3) = a1 a2 + 3 b1 b2 + (a1 b2 + b1 a2) s3
        return QSqrt3._raw(
            self._a * other._a + 3 * self._b * other._b,
            self._a * other._b + self._b * other._a,
            self._q * other._q,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QSqrt3 | int | Rat) -> QSqrt3:
        if not isinstance(other, QSqrt3):
            other = QSqrt3(other)
        norm = other._a * other._a - 3 * other._b * other._b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 3)")
        # 1 / ((a + b s3)/q) = q (a - b s3) / (a^2 - 3 b^2)
        return self * QSqrt3._raw(other._q * other._a, -other._q * other._b, norm)

    def __rtruediv__(self, other: int | Rat) -> QSqrt3:
        return QSqrt3(other) / self

    def sign(self) -> int:
        """Exact sign of the real value, in {-1, 0, +1}."""
        return sqrt3_sign(self._a, self._b)

    def __lt__(self, other: QSqrt3 | int | Rat) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: QSqrt3 | int | Rat) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: QSqrt3 | int | Rat) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: QSqrt3 | int | Rat) -> bool:
        return (self - other).sign() >= 0

    def __float__(self) -> float:
        return (self._a + self._b * 3 ** 0.5) / self._q

    def __repr__(self) -> str:
        return f"QSqrt3({self.r!r}, {self.s!r})"

    def __str__(self) -> str:
        r, s = self.r, self.s
        out = f"{r.numerator}/{r.denominator}"
        if s:
            sign = "+" if s > 0 else "-"
            t = abs(s)
            out += f"{sign}{t.numerator}/{t.denominator}*sqrt3"
        return out

    @classmethod
    def parse(cls, text: str) -> QSqrt3:
        """Inverse of ``str``: accepts "p/q" and "p/q(+|-)r/t*sqrt3"."""
        m = _SQRT3_RE.match(text)
        if not m:
            raise ValueError(f"not a Q(sqrt3) scalar: {text!r}")
        try:
            r = Fraction(m.group("r"))
            s = Fraction(m.group("s") or 0)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in Q(sqrt3) scalar: {text!r}") from exc
        if m.group("sign") == "-":
            s = -s
        return cls(r, s)
