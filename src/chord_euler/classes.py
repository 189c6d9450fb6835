"""Detectors for the six forbidden-position polygon classes and the theorem verifiers.

Each detector is a pure test on the polygon's order type (reflex patterns,
angle signs, pocket shapes) and never computes an Euler characteristic, so
the biconditional checks in :func:`verify_theorem3` compare two genuinely
independent computations.  The reflex set and every other sign are read from
the polygon's orientation table; the hull, the pockets and the per-vertex
kind masks ``diag`` and ``epi`` come from the chord universe.  The chis come
from those vertex masks alone, through the x = -1 interval tables of
:func:`~chord_euler.nc_euler.star_ear_chis`, so Theorem 3 never builds the
chord tuple, its index or a chord kind.  The tests check each detector
against its coordinate version and the tables against the DFS and the
deletion recursion.

Index conventions: the special vertex is ``i``; all index arithmetic is mod n;
"angle XAY exceeds pi" is the CCW angle at A from ray A->X to ray A->Y, which
in general position is ``not ccw(A, X, Y)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .chords import universe_of
from .geometry import Polygon
from .nc_euler import f_vector, star_ear_chis

CLASS_NAMES = ("Class1", "Class2", "Class3", "Class4", "Class5", "Class6")


def _require_size(poly: Polygon, smallest: int) -> None:
    if poly.n < smallest:
        raise ValueError(f"needs n >= {smallest}, got {poly.n}")


def _convex_without(poly: Polygon, i: int) -> bool:
    """Whether the cycle of all vertices but i is a convex polygon.

    It is iff every edge of the cycle has all of the cycle's other vertices on
    its left; a cycle that winds around twice fails this too.
    """
    n = poly.n
    left = poly.left
    full = (1 << n) - 1
    rest = [t for t in range(n) if t != i]
    return all(
        left[a * n + b] | 1 << a | 1 << b | 1 << i == full
        for a, b in zip(rest, rest[1:] + rest[:1])
    )


def is_class1(poly: Polygon, i: int) -> bool:
    """One reflex vertex at i, with the two-step angle profile around it."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.reflex_vertices != frozenset({i}):
        return False
    ccw = poly.ccw
    nxt1, nxt2 = (i + 1) % n, (i + 2) % n
    prv1, prv2 = (i - 1) % n, (i - 2) % n
    if not ccw(i, nxt2, prv2):
        return False
    return ccw(i, nxt2, prv1) == ccw(i, nxt1, prv2)


def is_class2(poly: Polygon, i: int) -> bool:
    """Reflex everywhere except the three consecutive vertices i-1, i, i+1."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    expected = frozenset(range(n)) - {(i - 1) % n, i, (i + 1) % n}
    return poly.reflex_vertices == expected


def _pocket_is_class2_shaped(poly: Polygon, path: tuple[int, ...], apex: int) -> bool:
    """Whether the pocket region is a triangle or a Class-2 region at ``apex``.

    The region runs the path backwards, so its reflex vertices are the path
    vertices p[s] with p[s-1] -> p[s] -> p[s+1] counter-clockwise, taken
    cyclically: the hull chord closes the cycle.  Class 2 (down to the dart)
    asks for them everywhere but at the apex and its two neighbours.
    """
    k = len(path)
    a = path.index(apex)
    ccw = poly.ccw
    return all(
        ccw(path[s - 1], path[s], path[(s + 1) % k]) != ((s - a) % k in (0, 1, k - 1))
        for s in range(k)
    )


def is_class3(poly: Polygon, i: int) -> bool:
    """Convex-at-i polygon whose hull pockets all hang off vertex i.

    Every hull edge that is not a polygon edge must be a chord at i, and each
    pocket must be a triangle or a Class-2 region with apex i.
    """
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.is_convex or i in poly.reflex_vertices:
        return False
    pks = universe_of(poly).pockets
    if not pks:
        return False
    return all(
        i in (p.hull_chord.i, p.hull_chord.j) and _pocket_is_class2_shaped(poly, p.path, i)
        for p in pks
    )


def is_class4(poly: Polygon, i: int) -> bool:
    """Triangle at i glued to a convex remainder along the ear chord."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    # A vertex other than i-1, i and i+1 has the same neighbours in P as in
    # the convex remainder, and i is a corner of the triangle: only i-1 and
    # i+1 can be reflex.
    if poly.is_convex or not poly.reflex_vertices <= {(i - 1) % n, (i + 1) % n}:
        return False
    # The ear chord (i-1, i+1) is a diagonal.
    if not universe_of(poly).diag[(i - 1) % n] >> (i + 1) % n & 1:
        return False
    return _convex_without(poly, i)


def is_class5(poly: Polygon, i: int) -> bool:
    """Deleting vertex i leaves a convex polygon (triangle cut from convex)."""
    _require_size(poly, 5)
    n = poly.n
    i %= n
    if poly.reflex_vertices != frozenset({i}):
        return False
    return _convex_without(poly, i)


def _class6_split(poly: Polygon, i: int) -> dict[str, Any] | None:
    n = poly.n
    i %= n
    rel = lambda t: (i + t) % n  # noqa: E731 - local index relabeling
    reflex_rel = {(v - i) % n for v in poly.reflex_vertices}
    if 0 not in reflex_rel:
        return None
    rest = reflex_rel - {0}
    if not rest or not rest <= set(range(2, n - 1)):
        return None
    # Every chord at i is a diagonal: i's diagonal partners are all but i-1, i, i+1.
    if universe_of(poly).diag[i] | 1 << rel(-1) | 1 << i | 1 << rel(1) != (1 << n) - 1:
        return None
    p = 1
    while p + 1 in rest:
        p += 1
    q = n - 1
    while q - 1 in rest:
        q -= 1
    if rest != set(range(2, p + 1)) | set(range(q, n - 1)) or p >= q - 1:
        return None
    ccw = poly.ccw
    if ccw(i, rel(p), rel(q)):
        return None
    # The middle fan [i, p..q] must be reflex only at the apex.
    if not ccw(rel(p), rel(p + 1), i) or not ccw(rel(q), i, rel(q - 1)):
        return None
    if q - p >= 3:
        # Proper middle polygon: the one-reflex-vertex profile at the apex.
        if not ccw(i, rel(p + 1), rel(q - 1)):
            return None
        if ccw(i, rel(p + 1), rel(q)) != ccw(i, rel(p), rel(q - 1)):
            return None
    middle = tuple(rel(t) for t in range(p, q + 1))
    outer_lo = tuple(rel(t) for t in range(0, p + 1)) if p > 1 else ()
    outer_hi = tuple(rel(t) for t in range(q, n)) + (i,) if q < n - 1 else ()
    return {
        "split": (p, q),
        "middle": (i,) + middle,
        "outer_low": outer_lo,
        "outer_high": outer_hi,
    }


def is_class6(poly: Polygon, i: int) -> bool:
    """A reflex-apex gluing of a one-reflex-vertex region between reflex fans.

    All chords at i are diagonals; the other reflex vertices form runs
    anchored at i+2 and i-2; the leftover middle fan exceeds pi at i and
    carries the Class-1 angle profile (or is a reflex quad).
    """
    _require_size(poly, 5)
    return _class6_split(poly, i) is not None


@dataclass(frozen=True)
class ClassReport:
    vertex: int
    memberships: frozenset[str]
    witnesses: dict[str, Any] = field(default_factory=dict)


def class_report(poly: Polygon, i: int) -> ClassReport:
    memberships = set()
    witnesses: dict[str, Any] = {"reflex": sorted(poly.reflex_vertices)}
    if poly.is_convex:
        memberships.add("Convex")
    detectors = {
        "Class1": is_class1,
        "Class2": is_class2,
        "Class3": is_class3,
        "Class4": is_class4,
        "Class5": is_class5,
        "Class6": is_class6,
    }
    for name, det in detectors.items():
        if det(poly, i):
            memberships.add(name)
    if "Class3" in memberships:
        witnesses["pockets"] = [
            {"hull_chord": str(p.hull_chord), "path": list(p.path)}
            for p in universe_of(poly).pockets
        ]
    split = _class6_split(poly, i) if poly.n >= 5 else None
    if split is not None:
        witnesses["class6"] = split
    return ClassReport(i, frozenset(memberships), witnesses)


@dataclass(frozen=True)
class Theorem1Report:
    n: int
    convex: bool
    d_counts: tuple[int, ...]
    e_counts: tuple[int, ...]
    d_sum: int
    e_sum: int
    d_expected: int
    e_expected: int | None
    ok: bool


def verify_theorem1(poly: Polygon) -> Theorem1Report:
    """Check the alternating diagonal/epigonal sums against the convexity criterion."""
    from .chords import diagonals, epigonals

    fd = f_vector(diagonals(poly))
    fe = f_vector(epigonals(poly))
    d_sum = fd.alternating_tail()
    e_sum = fe.alternating_tail()
    if poly.is_convex:
        d_expected, e_expected = 1 + (-1) ** poly.n, None
        ok = d_sum == d_expected and len(epigonals(poly)) == 0
    else:
        d_expected, e_expected = 1, 1
        ok = d_sum == 1 and e_sum == 1
    return Theorem1Report(
        poly.n, poly.is_convex, fd.counts, fe.counts, d_sum, e_sum, d_expected, e_expected, ok
    )


@dataclass(frozen=True)
class Theorem3Report:
    vertex: int
    chi_d_star: int
    chi_e_star: int
    chi_d_ear: int
    chi_e_ear: int
    detector_a: bool
    detector_b: bool
    detector_c: bool
    detector_d: bool
    clauses: tuple[bool, bool, bool, bool]
    ok: bool

    def failing_clauses(self) -> list[str]:
        return [name for name, good in zip("ABCD", self.clauses) if not good]


def verify_theorem3(poly: Polygon, i: int) -> Theorem3Report:
    """Test all four forbidden-position biconditionals at vertex i.

    The four chis are row i of the universe's x = -1 interval tables
    (:func:`~chord_euler.nc_euler.star_ear_chis`); the detectors read the
    orientation signs.
    """
    _require_size(poly, 5)
    i %= poly.n
    chi_d_star, chi_e_star, chi_d_ear, chi_e_ear = star_ear_chis(universe_of(poly))[i]
    convex = poly.is_convex
    class2 = is_class2(poly, i)
    det_a = is_class1(poly, i) or class2 or is_class6(poly, i)
    det_b = convex or is_class3(poly, i)
    det_c = is_class4(poly, i)
    det_d = convex or class2 or is_class5(poly, i)
    clauses = (
        (chi_d_star != 0) == det_a,
        (chi_e_star != 0) == det_b,
        (chi_d_ear != 0) == det_c,
        (chi_e_ear != 0) == det_d,
    )
    return Theorem3Report(
        i, chi_d_star, chi_e_star, chi_d_ear, chi_e_ear,
        det_a, det_b, det_c, det_d, clauses, all(clauses),
    )
