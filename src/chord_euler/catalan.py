"""Generalized Catalan numbers d_k(n, a) for non-crossing a-diagonal sets.

d_k(n, a) counts the k-element pairwise non-crossing sets of a-diagonals of a
convex polygon with a*(n+1)+2 vertices.  The closed form is

    d_k(n, a) = C(a*(n+1)+k+1, k) * C(n, k) / (k + 1)

and the division is always exact; an explicit guard raises if it ever is not
(that would indicate misuse, not rounding).  The only independent ground
truth here is the geometric route over an actual convex polygon: its
a-diagonals are classified from the polygon's orientation table and counted
by :func:`nc_euler.f_vector`, which shares no code with the closed form.
"""

from __future__ import annotations

from math import comb, lcm

from .chords import a_diagonals
from .geometry import Polygon
from .nc_euler import FVector, f_vector


def d_closed(n: int, k: int, a: int) -> int:
    """Exact d_k(n, a); a = 0 is allowed (needed by the alternating sum)."""
    if n < 0 or k < 0 or a < 0:
        raise ValueError("n, k, a must be non-negative")
    num = comb(a * (n + 1) + k + 1, k) * comb(n, k)
    q, r = divmod(num, k + 1)
    if r:
        raise ArithmeticError(f"inexact division in d_closed({n}, {k}, {a})")
    return q


def d_recurrence_check(n: int, k: int, a: int) -> bool:
    """Whether the convolution recurrence reproduces the closed form.

    d_k(n,a) = (a(n+1)+2)/(2k) * sum_{i1+i2=n-1} sum_{j1+j2=k-1}
               d_{j1}(i1,a) d_{j2}(i2,a)

    Each d_j(i, a) with i < n and j < k is computed once, and the two sides
    are compared cross-multiplied by 2k, in integers.
    """
    if n < 1 or k < 1 or a < 1:
        raise ValueError("recurrence needs n, k, a >= 1")
    d = [[d_closed(i, j, a) for j in range(k)] for i in range(n)]
    acc = sum(
        d[i1][j1] * d[n - 1 - i1][k - 1 - j1] for i1 in range(n) for j1 in range(k)
    )
    return (a * (n + 1) + 2) * acc == 2 * k * d_closed(n, k, a)


def alternating_sum_check(n: int, a: int) -> bool:
    """sum_{k=1..n} (-1)^(k-1) d_k(n,a) == 1 + (-1)^(n+1) d_n(n, a-1)."""
    if n < 1 or a < 1:
        raise ValueError("needs n, a >= 1")
    lhs = sum((-1) ** (k - 1) * d_closed(n, k, a) for k in range(1, n + 1))
    rhs = 1 + (-1) ** (n + 1) * d_closed(n, n, a - 1)
    return lhs == rhs


def identity14_check(n: int, i: int, a: int) -> bool:
    """Pure-binomial transcription of the recurrence identity.

    Kept textually independent of :func:`d_recurrence_check` so that a
    transcription slip in either one shows up as a disagreement.  The sum's
    terms have denominators (i1 + 1)(i2 + 1).  They are summed over their
    least common multiple, and the two sides are compared cross-multiplied,
    in integers.
    """
    if n < 1 or i < 1 or a < 1:
        raise ValueError("needs n, i, a >= 1")
    common = lcm(*((i1 + 1) * (i - i1) for i1 in range(i)))
    acc = 0  # the sum, times common
    for n1 in range(n):
        n2 = n - 1 - n1
        for i1 in range(i):
            i2 = i - 1 - i1
            acc += (
                comb(a * (n1 + 1) + (i1 + 1), i1)
                * comb(a * (n2 + 1) + (i2 + 1), i2)
                * comb(n1, i1)
                * comb(n2, i2)
                * (common // ((i1 + 1) * (i2 + 1)))
            )
    # lhs = C(a(n+1) + i + 1, i) C(n, i) / (i + 1) and rhs = (a(n+1) + 2) acc / (2i common),
    # each times 2i (i + 1) common.
    lhs = comb(a * (n + 1) + (i + 1), i) * comb(n, i) * 2 * i * common
    return lhs == (a * (n + 1) + 2) * acc * (i + 1)


def brute_a_diagonal_fvector(poly: Polygon, a: int) -> FVector:
    """Geometric oracle: count non-crossing a-diagonal sets of a convex polygon.

    The a-diagonals come from the polygon's chord classification and are
    counted by :func:`f_vector`'s interval DP, which reaches polygons far
    larger than an enumeration does.  The route stays independent of
    :func:`d_closed`.
    """
    if not poly.is_convex:
        raise ValueError("the a-diagonal counting theorem is about convex polygons")
    if (poly.n - 2) % a != 0 or (poly.n - 2) // a < 1:
        raise ValueError(f"|P| = {poly.n} is not a*(n+1)+2 with n >= 0 for a = {a}")
    return f_vector(a_diagonals(poly, a))
