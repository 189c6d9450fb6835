"""Detectors for the six forbidden-position polygon classes and the theorem verifiers.

Each detector is a pure test on the polygon's order type (reflex patterns,
angle signs, pocket shapes) and never computes an Euler characteristic, so
the biconditional checks in :func:`verify_theorem3` compare two genuinely
independent computations.  The reflex set and every other sign are read from
the polygon's orientation table; the pockets and the per-vertex kind masks
``diag`` and ``epi`` come from the chord universe.  The chis come
from those vertex masks alone, through the x = -1 interval tables of
:func:`~chord_euler.nc_euler.star_ear_chis`, so Theorem 3 never builds the
chord tuple, its index or a chord kind.  The tests check each detector
against its coordinate version and the tables against the DFS and the
deletion recursion.

The classes are six n-bit vertex masks, built once per polygon by
:func:`_class_masks` and cached on the universe: bit i of mask k is set iff
the polygon is in Class k at vertex i.  The reflex mask R names the
candidates, and the full tests run only there.  A convex polygon (R = 0) is
in no class.  Classes 1 and 5 need R = {r} and are tested at r.  Class 2
holds at i iff R is every vertex but i-1, i and i+1: at the middle one of
three consecutive convex vertices.  Class 4 needs R inside {i-1, i+1}, so it
is tested at r-1 and r+1 for the lowest reflex r, Class 3 at the convex
vertices that end every pocket's hull chord (at most two), Class 6 at the
reflex vertices.  The detectors ``is_class1`` .. ``is_class6``,
:func:`verify_theorem3` and :func:`class_report` read bits.

Index conventions: the special vertex is ``i``; all index arithmetic is mod n;
"angle XAY exceeds pi" is the CCW angle at A from ray A->X to ray A->Y, which
in general position is ``not ccw(A, X, Y)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple

from .chords import diagonals, epigonals, universe_of
from .geometry import Polygon
from .nc_euler import _bits, f_vector, star_ear_chis

CLASS_NAMES = ("Class1", "Class2", "Class3", "Class4", "Class5", "Class6")


def _require_size(poly: Polygon, smallest: int) -> None:
    if poly.n < smallest:
        raise ValueError(f"needs n >= {smallest}, got {poly.n}")


def _convex_without(poly: Polygon, i: int) -> bool:
    """Whether the cycle of all vertices but i is a convex polygon.

    It is iff every edge of the cycle has all of the cycle's other vertices on
    its left; a cycle that winds around twice fails this too.  The cycle
    starts with the new edge i-1 -> i+1, which fails first when i-1 or i+1
    is reflex in it.
    """
    n = poly.n
    left = poly.left
    full = (1 << n) - 1
    rest = [(i + s) % n for s in range(-1, n - 1) if s]
    return all(
        left[a * n + b] | 1 << a | 1 << b | 1 << i == full
        for a, b in zip(rest, rest[1:] + rest[:1])
    )


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


def _class6_split(poly: Polygon, i: int) -> dict[str, Any] | None:
    """The Class-6 split at the reflex vertex i, or None if there is none.

    p and q count from i.  The middle fan [i, p..q] turns counter-clockwise
    at p and at q without a test.  Past the "every chord at i is a diagonal" test and p < q - 1, the
    chords (i, p+1) and (i, q-1) are diagonals.  So is (i, p), or it is the
    edge (i, i+1) when p = 1, and so is (i, q), or it is the edge (i, i-1)
    when q = n - 1.  Then (i, p, p+1) and (i, q-1, q) are faces of the cuts
    by them.  A face visits its vertices in increasing cyclic order and turns
    counter-clockwise (see :mod:`~chord_euler.partition`), which gives
    ccw(p, p+1, i) and ccw(q-1, q, i) = ccw(q, i, q-1).
    """
    n = poly.n
    rel = lambda t: (i + t) % n  # noqa: E731 - local index relabeling
    rest = {(v - i) % n for v in poly.reflex_vertices} - {0}
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


def _class_masks(poly: Polygon) -> tuple[int, ...]:
    """Per class k = 1..6, the vertex mask of the i at which P is in Class k.

    Built once per polygon and cached on its universe (``class_masks``).
    """
    uni = universe_of(poly)
    if uni.class_masks is None:
        uni.class_masks = _nonconvex_masks(poly) if poly.reflex_vertices else (0,) * 6
    return uni.class_masks


def _nonconvex_masks(poly: Polygon) -> tuple[int, ...]:
    """The class masks of a non-convex polygon, tested at the candidates only.

    Class 4 needs no ear-chord test.  Let Q be the cycle without i.  Once
    ``_convex_without(poly, i)`` holds, Q is a convex CCW polygon with all its
    other vertices left of the line i-1 -> i+1.  With R inside {i-1, i+1}, i is
    convex and so lies right of that line.  The triangle (i-1, i, i+1) and Q
    then meet only along the segment from i-1 to i+1, which lies inside P: it
    is a diagonal.
    """
    n = poly.n
    full = (1 << n) - 1
    reflex = sum(1 << r for r in poly.reflex_vertices)
    masks = [0] * 6
    r = (reflex & -reflex).bit_length() - 1  # the lowest reflex vertex
    if reflex & reflex - 1 == 0:
        # Classes 1 and 5: at the one reflex vertex r.
        ccw = poly.ccw
        nxt1, nxt2, prv1, prv2 = (r + 1) % n, (r + 2) % n, (r - 1) % n, (r - 2) % n
        if ccw(r, nxt2, prv2) and ccw(r, nxt2, prv1) == ccw(r, nxt1, prv2):
            masks[0] = reflex
        if _convex_without(poly, r):
            masks[4] = reflex
    # Class 2: convex only at i-1, i and i+1.
    convex = full ^ reflex
    if convex.bit_count() == 3:
        for i in _bits(convex):
            if convex == 1 << (i - 1) % n | 1 << i | 1 << (i + 1) % n:
                masks[1] = 1 << i
    # Class 4: only i-1 and i+1 may be reflex, and P less i is convex.
    for i in ((r - 1) % n, (r + 1) % n):
        if not reflex & ~(1 << (i - 1) % n | 1 << (i + 1) % n) and _convex_without(poly, i):
            masks[3] |= 1 << i
    # Class 3: at a convex end of every pocket's hull chord, at most two vertices.
    pockets = universe_of(poly).pockets
    ends = convex
    for p in pockets:
        ends &= 1 << p.hull_chord.i | 1 << p.hull_chord.j
    for i in _bits(ends):
        if all(_pocket_is_class2_shaped(poly, p.path, i) for p in pockets):
            masks[2] |= 1 << i
    # Class 6: at a reflex vertex.
    for i in _bits(reflex):
        if _class6_split(poly, i) is not None:
            masks[5] |= 1 << i
    return tuple(masks)


def _in_class(poly: Polygon, i: int, k: int) -> bool:
    _require_size(poly, 5)
    return bool(_class_masks(poly)[k - 1] >> i % poly.n & 1)


def is_class1(poly: Polygon, i: int) -> bool:
    """One reflex vertex at i, with the two-step angle profile around it."""
    return _in_class(poly, i, 1)


def is_class2(poly: Polygon, i: int) -> bool:
    """Reflex everywhere except the three consecutive vertices i-1, i, i+1."""
    return _in_class(poly, i, 2)


def is_class3(poly: Polygon, i: int) -> bool:
    """Convex-at-i polygon whose hull pockets all hang off vertex i.

    Every hull edge that is not a polygon edge must be a chord at i, and each
    pocket must be a triangle or a Class-2 region with apex i.
    """
    return _in_class(poly, i, 3)


def is_class4(poly: Polygon, i: int) -> bool:
    """Triangle at i glued to a convex remainder along the ear chord."""
    return _in_class(poly, i, 4)


def is_class5(poly: Polygon, i: int) -> bool:
    """Deleting vertex i leaves a convex polygon (triangle cut from convex)."""
    return _in_class(poly, i, 5)


def is_class6(poly: Polygon, i: int) -> bool:
    """A reflex-apex gluing of a one-reflex-vertex region between reflex fans.

    All chords at i are diagonals; the other reflex vertices form runs
    anchored at i+2 and i-2; the leftover middle fan exceeds pi at i and
    carries the Class-1 angle profile (or is a reflex quad).
    """
    return _in_class(poly, i, 6)


@dataclass(frozen=True)
class ClassReport:
    vertex: int
    memberships: frozenset[str]
    witnesses: dict[str, Any] = field(default_factory=dict)


def class_report(poly: Polygon, i: int) -> ClassReport:
    _require_size(poly, 5)
    at = i % poly.n
    memberships = {name for name, m in zip(CLASS_NAMES, _class_masks(poly)) if m >> at & 1}
    witnesses: dict[str, Any] = {"reflex": sorted(poly.reflex_vertices)}
    if poly.is_convex:
        memberships.add("Convex")
    if "Class3" in memberships:
        witnesses["pockets"] = [
            {"hull_chord": str(p.hull_chord), "path": list(p.path)}
            for p in universe_of(poly).pockets
        ]
    if "Class6" in memberships:
        witnesses["class6"] = _class6_split(poly, at)
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


class Theorem3Report(NamedTuple):
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
    (:func:`~chord_euler.nc_euler.star_ear_chis`); the detectors are bit i of
    the class masks.
    """
    _require_size(poly, 5)
    i %= poly.n
    d_star, e_star, d_ear, e_ear = star_ear_chis(universe_of(poly))[i]
    m1, m2, m3, m4, m5, m6 = _class_masks(poly)
    convex = poly.is_convex
    det_a = (m1 | m2 | m6) >> i & 1 == 1
    det_b = convex or m3 >> i & 1 == 1
    det_c = m4 >> i & 1 == 1
    det_d = convex or (m2 | m5) >> i & 1 == 1
    clauses = (
        (d_star != 0) == det_a,
        (e_star != 0) == det_b,
        (d_ear != 0) == det_c,
        (e_ear != 0) == det_d,
    )
    return Theorem3Report(
        i, d_star, e_star, d_ear, e_ear, det_a, det_b, det_c, det_d, clauses, all(clauses)
    )
