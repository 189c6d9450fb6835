import pytest

from chord_euler.catalan import (
    alternating_sum_check,
    brute_a_diagonal_fvector,
    d_closed,
    d_recurrence_check,
    identity14_check,
)
from chord_euler.chords import a_diagonals, diagonals
from chord_euler.generators import convex_ngon
from chord_euler.nc_euler import f_vector


def test_closed_form_hand_values():
    assert d_closed(2, 1, 1) == 5  # pentagon diagonal count
    assert d_closed(1, 1, 2) == 3  # hexagon long diagonals
    # d_n(n, 1) are the Catalan numbers (triangulation counts).
    assert [d_closed(n, n, 1) for n in range(1, 7)] == [2, 5, 14, 42, 132, 429]
    assert d_closed(3, 5, 2) == 0  # k > n vanishes through C(n, k)
    assert d_closed(4, 0, 3) == 1


def test_closed_form_a_zero():
    # The alternating-sum right side needs a = 0, where the closed form
    # gives C(n+1, n)/(n+1) = 1.
    assert all(d_closed(n, n, 0) == 1 for n in range(1, 10))


def test_exact_division_guard_never_fires():
    for n in range(0, 65):
        for a in range(0, 9):
            for k in range(0, n + 1):
                d_closed(n, k, a)


def test_recurrence():
    # Hand evaluations from the two-term convolutions.
    assert d_recurrence_check(2, 1, 1)  # (5/2)(1*1 + 1*1) = 5
    assert d_recurrence_check(1, 1, 2)  # (6/2)(1*1) = 3
    assert all(
        d_recurrence_check(n, k, a)
        for n in range(1, 9)
        for k in range(1, n + 1)
        for a in range(1, 6)
    )
    with pytest.raises(ValueError):
        d_recurrence_check(0, 1, 1)


def test_alternating_sum():
    # n=2, a=2: 8 - 12 = -4 = 1 - d_2(2,1) = 1 - 5.
    assert d_closed(2, 1, 2) == 8 and d_closed(2, 2, 2) == 12
    assert alternating_sum_check(2, 2)
    # n=3, a=1: 9 - 21 + 14 = 2 = 1 + d_3(3,0).
    assert alternating_sum_check(3, 1)
    assert all(alternating_sum_check(n, a) for n in range(1, 13) for a in range(1, 7))


def test_identity14():
    assert identity14_check(2, 1, 1)
    assert identity14_check(3, 2, 2)
    assert identity14_check(2, 5, 3)  # i > n: both sides vanish
    assert all(
        identity14_check(n, i, a)
        for n in range(1, 9)
        for i in range(1, n + 1)
        for a in range(1, 6)
    )


def test_geometric_oracle_matches_closed_form():
    for a in (1, 2, 3):
        n = 1
        while a * (n + 1) + 2 <= 12:
            size = a * (n + 1) + 2
            fv = brute_a_diagonal_fvector(convex_ngon(size), a)
            for k, count in enumerate(fv.counts):
                assert count == d_closed(n, k, a)
            assert fv.euler == (-1) ** n * d_closed(n, n, a - 1)
            n += 1


def test_dp_matches_closed_form_past_the_brute_force():
    # The 54 cases a(n+1)+2 <= 32, a = 1..3, n >= 0, from the 4-gon on:
    # the interval DP reaches the 32-gon, where the DFS stopped at 12.
    polys = {size: convex_ngon(size) for size in range(4, 33)}
    cases = 0
    for a in (1, 2, 3):
        for n in range(0, 30):
            size = a * (n + 1) + 2
            if size not in polys:
                continue
            fv = f_vector(a_diagonals(polys[size], a))
            assert list(fv.counts) == [d_closed(n, k, a) for k in range(n + 1)], (a, n)
            cases += 1
    assert cases == 54


def test_a_one_matches_plain_diagonal_counts():
    for size in range(4, 10):
        poly = convex_ngon(size)
        assert brute_a_diagonal_fvector(poly, 1).counts == f_vector(diagonals(poly)).counts


def test_brute_preconditions(dart):
    with pytest.raises(ValueError):
        brute_a_diagonal_fvector(convex_ngon(7), 2)
    with pytest.raises(ValueError):
        brute_a_diagonal_fvector(dart, 1)
