from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chord_euler.exact_scalar import QSqrt3, lift, sqrt3_sign

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)
scalars = st.builds(QSqrt3, rationals, rationals)


def test_multiplication_table():
    one = QSqrt3(1)
    root = QSqrt3(0, 1)
    assert one * root == root
    assert root * root == QSqrt3(3)
    x = QSqrt3(1, 1)
    assert x / x == one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1) / QSqrt3(0)


def test_sign_examples():
    assert QSqrt3(1, 0).sign() == 1
    assert QSqrt3(0, -1).sign() == -1
    # 3*sqrt(3) > 5 because 27 > 25: frozen from the squaring oracle.
    assert 3 * 3 * 3 > 5 * 5
    assert QSqrt3(-5, 3).sign() == 1
    assert QSqrt3(5, -3).sign() == -1
    assert QSqrt3(-7, 4).sign() == -1  # 48 < 49


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def _sign_by_integer_bounds(a, b):
    # For b != 0, 3b^2 is not a square, so r = isqrt(3b^2) < |b|*sqrt(3) < r + 1.
    if b == 0:
        return (a > 0) - (a < 0)
    r = isqrt(3 * b * b)
    if b > 0:
        return 1 if a >= -r else -1
    return 1 if a >= r + 1 else -1


def test_sqrt3_sign_grid():
    # a = 0 with b < 0, and both outcomes of the squaring comparison for
    # opposite signs (|a| on each side of |b|*sqrt(3)), all lie in the grid.
    cases = [(a, b) for a in range(-60, 61) for b in range(-35, 36)]
    cases += [(-97, 56), (97, -56), (-168, 97), (168, -97)]  # near a^2 = 3b^2
    for a, b in cases:
        want = _sign_by_integer_bounds(a, b)
        assert sqrt3_sign(a, b) == want, (a, b)
        assert QSqrt3(a, b).sign() == want, (a, b)


def test_lift_common_denominator():
    values = [QSqrt3(Fraction(1, 6), Fraction(-3, 4)), QSqrt3(5), QSqrt3(0, Fraction(2, 9))]
    lifted = lift(values)
    d = lifted[1][0] // 5
    assert d > 0
    assert [QSqrt3(Fraction(a, d), Fraction(b, d)) for a, b in lifted] == values


@given(scalars)
def test_sign_antisymmetry_and_squares(a):
    assert a.sign() == -(-a).sign()
    sq = a * a
    assert sq.sign() >= 0
    assert (sq.sign() == 0) == (not a)


@given(scalars)
def test_division_inverts(a):
    if a:
        assert (a / a) == QSqrt3(1)
        assert (QSqrt3(1) / a) * a == QSqrt3(1)


@given(rationals, rationals)
def test_rational_embedding_matches_fraction(p, q):
    a, b = QSqrt3(p), QSqrt3(q)
    assert (a + b).r == p + q
    assert (a * b).r == p * q
    assert (a - b).r == p - q
    assert (a + b).s == 0


@given(scalars)
def test_text_round_trip(a):
    assert QSqrt3.parse(str(a)) == a


def test_parse_forms():
    assert QSqrt3.parse("3/4") == QSqrt3(Fraction(3, 4))
    assert QSqrt3.parse("-1/2+2/3*sqrt3") == QSqrt3(Fraction(-1, 2), Fraction(2, 3))
    assert QSqrt3.parse("0/1-5/1*sqrt3") == QSqrt3(0, -5)
    with pytest.raises(ValueError):
        QSqrt3.parse("sqrt2")


@pytest.mark.parametrize("text", ["1/0", "0/0", "1/2+3/0*sqrt3", "-5/0-1/1*sqrt3"])
def test_parse_zero_denominator_is_value_error(text):
    with pytest.raises(ValueError, match="zero denominator") as info:
        QSqrt3.parse(text)
    assert not isinstance(info.value, ZeroDivisionError)


def test_canonical_representation_and_hash():
    a = QSqrt3(Fraction(2, 4), Fraction(6, 8))
    b = QSqrt3(Fraction(1, 2), Fraction(3, 4))
    assert a == b and hash(a) == hash(b)


def test_ordering_through_signs():
    assert QSqrt3(0, 1) > QSqrt3(Fraction(17, 10))  # sqrt3 > 1.7
    assert QSqrt3(0, 1) < QSqrt3(Fraction(174, 100))
